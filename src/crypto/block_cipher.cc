/**
 * @file
 * Mode-of-operation helpers shared by all block ciphers.
 */

#include "crypto/block_cipher.hh"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::crypto
{

void
ecbEncrypt(const BlockCipher &cipher, uint8_t *data, size_t len)
{
    const size_t bs = cipher.blockSize();
    panic_if(len % bs != 0, "ECB length ", len, " not a multiple of ", bs);
    cipher.encryptBlocks(data, data, len / bs);
}

void
ecbDecrypt(const BlockCipher &cipher, uint8_t *data, size_t len)
{
    const size_t bs = cipher.blockSize();
    panic_if(len % bs != 0, "ECB length ", len, " not a multiple of ", bs);
    cipher.decryptBlocks(data, data, len / bs);
}

void
padLines(const BlockCipher &cipher, size_t line_len, size_t lines,
         const std::function<uint64_t(size_t)> &seed_of, uint8_t *out,
         PadOutput mode)
{
    const size_t bs = cipher.blockSize();
    panic_if(bs < 8, "pad generation needs a >= 64-bit block cipher");
    panic_if(line_len % bs != 0, "pad length ", line_len,
             " not a multiple of ", bs);

    // Per-block tweak: a plain "seed + i" counter would make the pads
    // of adjacent seeds shift-aligned copies of each other (pad block
    // i+1 of seed s equals pad block i of seed s+1), re-creating the
    // correlation the paper's Section 3.4 rules out. Multiplying the
    // block index by an odd constant before XORing makes alignment
    // between any two distinct seeds impossible.
    alignas(32) uint8_t stage[kPadStageBytes];
    panic_if(bs > sizeof(stage), "unexpected block size ", bs);
    const size_t stage_blocks = sizeof(stage) / bs;
    const size_t line_blocks = line_len / bs;
    const size_t total = line_len * lines;

    // The block cursor (line, index) runs across stage boundaries, so
    // a line may span two stages and a stage may hold many lines.
    size_t line = 0;
    size_t index = 0;
    uint64_t seed = lines > 0 ? seed_of(0) : 0;
    for (size_t off = 0; off < total;) {
        const size_t n = std::min(stage_blocks, (total - off) / bs);
        if (bs > 8)
            std::memset(stage, 0, n * bs);
        for (size_t b = 0; b < n; ++b, ++index) {
            if (index == line_blocks) {
                index = 0;
                seed = seed_of(++line);
            }
            util::storeBe64(stage + b * bs,
                            seed ^ (index * kPadBlockTweak));
        }
        if (mode == PadOutput::Store) {
            cipher.encryptBlocks(stage, out + off, n);
        } else {
            cipher.encryptBlocks(stage, stage, n);
            xorPad(out + off, stage, n * bs);
        }
        off += n * bs;
    }
}

void
generatePad(const BlockCipher &cipher, uint64_t seed, uint8_t *pad,
            size_t len)
{
    padLines(cipher, len, 1, [seed](size_t) { return seed; }, pad,
             PadOutput::Store);
}

void
xorPad(uint8_t *data, const uint8_t *pad, size_t len)
{
    for (size_t i = 0; i < len; ++i)
        data[i] ^= pad[i];
}

void
otpTransform(const BlockCipher &cipher, uint64_t seed, uint8_t *data,
             size_t len)
{
    padLines(cipher, len, 1, [seed](size_t) { return seed; }, data,
             PadOutput::Xor);
}

uint64_t
countRepeatedBlocks(const uint8_t *data, size_t len, size_t block_size)
{
    panic_if(block_size == 0, "block size must be non-zero");
    std::unordered_map<std::string, uint64_t> seen;
    uint64_t repeats = 0;
    for (size_t off = 0; off + block_size <= len; off += block_size) {
        std::string key(reinterpret_cast<const char *>(data + off),
                        block_size);
        auto [it, inserted] = seen.try_emplace(std::move(key), 0);
        if (!inserted)
            ++repeats;
        ++it->second;
    }
    return repeats;
}

} // namespace secproc::crypto
