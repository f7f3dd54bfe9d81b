/**
 * @file
 * SHA-1 / SHA-256 / HMAC implementations.
 *
 * SHA-256 compression is multi-block and dispatches once, at first
 * use, between a portable implementation and an x86 SHA-NI one
 * (runtime CPUID probe; both paths produce identical digests).
 * update() feeds whole blocks straight from the caller's buffer —
 * no per-block memcpy — which matters because OTA image digests push
 * megabytes through here per simulated install.
 */

#include "crypto/sha.hh"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "util/bitops.hh"

namespace secproc::crypto
{

// --------------------------------------------------------------------
// SHA-1
// --------------------------------------------------------------------

Sha1::Sha1()
{
    reset();
}

void
Sha1::reset()
{
    h_[0] = 0x67452301u;
    h_[1] = 0xEFCDAB89u;
    h_[2] = 0x98BADCFEu;
    h_[3] = 0x10325476u;
    h_[4] = 0xC3D2E1F0u;
    total_bits_ = 0;
    buffered_ = 0;
}

void
Sha1::processBlock(const uint8_t block[64])
{
    uint32_t w[80];
    for (int t = 0; t < 16; ++t)
        w[t] = util::loadBe32(block + 4 * t);
    for (int t = 16; t < 80; ++t)
        w[t] = util::rotl32(w[t-3] ^ w[t-8] ^ w[t-14] ^ w[t-16], 1);

    uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
    for (int t = 0; t < 80; ++t) {
        uint32_t f, k;
        if (t < 20) {
            f = (b & c) | (~b & d);
            k = 0x5A827999u;
        } else if (t < 40) {
            f = b ^ c ^ d;
            k = 0x6ED9EBA1u;
        } else if (t < 60) {
            f = (b & c) | (b & d) | (c & d);
            k = 0x8F1BBCDCu;
        } else {
            f = b ^ c ^ d;
            k = 0xCA62C1D6u;
        }
        const uint32_t temp = util::rotl32(a, 5) + f + e + k + w[t];
        e = d;
        d = c;
        c = util::rotl32(b, 30);
        b = a;
        a = temp;
    }
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
}

void
Sha1::update(const uint8_t *data, size_t len)
{
    total_bits_ += static_cast<uint64_t>(len) * 8;
    if (buffered_ > 0) {
        const size_t take = std::min(len, sizeof(buffer_) - buffered_);
        std::memcpy(buffer_ + buffered_, data, take);
        buffered_ += take;
        data += take;
        len -= take;
        if (buffered_ == sizeof(buffer_)) {
            processBlock(buffer_);
            buffered_ = 0;
        }
    }
    while (len >= sizeof(buffer_)) {
        processBlock(data);
        data += sizeof(buffer_);
        len -= sizeof(buffer_);
    }
    if (len > 0) {
        std::memcpy(buffer_, data, len);
        buffered_ = len;
    }
}

void
Sha1::final(uint8_t digest[kDigestSize])
{
    const uint64_t bits = total_bits_;
    const uint8_t pad = 0x80;
    update(&pad, 1);
    const uint8_t zero = 0x00;
    while (buffered_ != 56)
        update(&zero, 1);
    uint8_t len_be[8];
    util::storeBe64(len_be, bits);
    update(len_be, 8);
    for (int i = 0; i < 5; ++i)
        util::storeBe32(digest + 4 * i, h_[i]);
    reset();
}

std::array<uint8_t, Sha1::kDigestSize>
Sha1::digest(const uint8_t *data, size_t len)
{
    Sha1 hasher;
    hasher.update(data, len);
    std::array<uint8_t, kDigestSize> out;
    hasher.final(out.data());
    return out;
}

// --------------------------------------------------------------------
// SHA-256
// --------------------------------------------------------------------

namespace
{

constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/**
 * The SHA-256 compression function, picked once per process: the
 * hardware path when the CPU has it, the portable path otherwise.
 */
using CompressFn = void (*)(uint32_t[8], const uint8_t *, size_t);

CompressFn
compress()
{
    static const CompressFn fn = detail::sha256CpuHasShaNi()
                                     ? detail::sha256CompressHw
                                     : detail::sha256CompressScalar;
    return fn;
}

} // namespace

namespace detail
{

void
sha256CompressScalar(uint32_t state[8], const uint8_t *data,
                     size_t blocks)
{
    for (; blocks > 0; --blocks, data += 64) {
        uint32_t w[64];
        for (int t = 0; t < 16; ++t)
            w[t] = util::loadBe32(data + 4 * t);
        for (int t = 16; t < 64; ++t) {
            const uint32_t s0 = util::rotr32(w[t-15], 7) ^
                                util::rotr32(w[t-15], 18) ^
                                (w[t-15] >> 3);
            const uint32_t s1 = util::rotr32(w[t-2], 17) ^
                                util::rotr32(w[t-2], 19) ^
                                (w[t-2] >> 10);
            w[t] = w[t-16] + s0 + w[t-7] + s1;
        }

        uint32_t a = state[0], b = state[1], c = state[2];
        uint32_t d = state[3], e = state[4], f = state[5];
        uint32_t g = state[6], h = state[7];
        for (int t = 0; t < 64; ++t) {
            const uint32_t s1 = util::rotr32(e, 6) ^
                                util::rotr32(e, 11) ^
                                util::rotr32(e, 25);
            const uint32_t ch = (e & f) ^ (~e & g);
            const uint32_t temp1 = h + s1 + ch + kSha256K[t] + w[t];
            const uint32_t s0 = util::rotr32(a, 2) ^
                                util::rotr32(a, 13) ^
                                util::rotr32(a, 22);
            const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__) || defined(__i386__)

bool
sha256CpuHasShaNi()
{
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0)
        return false;
    const bool ssse3 = (ecx & (1u << 9)) != 0;
    const bool sse41 = (ecx & (1u << 19)) != 0;
    if (!ssse3 || !sse41)
        return false;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0)
        return false;
    return (ebx & (1u << 29)) != 0;
}

/**
 * SHA-256 via the x86 SHA extensions. One sha256rnds2 does two
 * rounds on the (ABEF, CDGH) register split; the message schedule
 * advances four lanes at a time through sha256msg1/msg2 plus an
 * explicit w[t-7] alignr term — the same recurrence the scalar
 * loop computes, grouped by four.
 */
__attribute__((target("sha,ssse3,sse4.1"))) void
sha256CompressHw(uint32_t state[8], const uint8_t *data,
                 size_t blocks)
{
    const __m128i swap = _mm_set_epi64x(
        0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    const auto kvec = [](int round) {
        return _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(&kSha256K[round]));
    };

    // state[] holds ABCD EFGH; the instructions want ABEF / CDGH.
    __m128i tmp = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(&state[0]));
    __m128i s1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(&state[4]));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);
    s1 = _mm_shuffle_epi32(s1, 0x1B);
    __m128i s0 = _mm_alignr_epi8(tmp, s1, 8);
    s1 = _mm_blend_epi16(s1, tmp, 0xF0);

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abef_save = s0;
        const __m128i cdgh_save = s1;

        __m128i m[4];
        for (int g = 0; g < 4; ++g) {
            m[g] = _mm_shuffle_epi8(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(data + 16 * g)),
                swap);
            const __m128i msg = _mm_add_epi32(m[g], kvec(4 * g));
            s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
            s0 = _mm_sha256rnds2_epu32(
                s0, s1, _mm_shuffle_epi32(msg, 0x0E));
        }
        for (int g = 4; g < 16; ++g) {
            // w[t] = w[t-16] + sigma0(w[t-15]) + w[t-7] +
            //        sigma1(w[t-2]), four lanes at a time.
            __m128i next =
                _mm_sha256msg1_epu32(m[(g - 4) & 3], m[(g - 3) & 3]);
            next = _mm_add_epi32(
                next, _mm_alignr_epi8(m[(g - 1) & 3],
                                      m[(g - 2) & 3], 4));
            next = _mm_sha256msg2_epu32(next, m[(g - 1) & 3]);
            m[g & 3] = next;
            const __m128i msg = _mm_add_epi32(next, kvec(4 * g));
            s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
            s0 = _mm_sha256rnds2_epu32(
                s0, s1, _mm_shuffle_epi32(msg, 0x0E));
        }

        s0 = _mm_add_epi32(s0, abef_save);
        s1 = _mm_add_epi32(s1, cdgh_save);
    }

    tmp = _mm_shuffle_epi32(s0, 0x1B);
    s1 = _mm_shuffle_epi32(s1, 0xB1);
    s0 = _mm_blend_epi16(tmp, s1, 0xF0);
    s1 = _mm_alignr_epi8(s1, tmp, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[0]), s0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[4]), s1);
}

#else // !x86

bool
sha256CpuHasShaNi()
{
    return false;
}

void
sha256CompressHw(uint32_t state[8], const uint8_t *data, size_t blocks)
{
    sha256CompressScalar(state, data, blocks);
}

#endif

} // namespace detail

bool
sha256HardwareAvailable()
{
    return compress() == detail::sha256CompressHw;
}

Sha256::Sha256()
{
    reset();
}

void
Sha256::reset()
{
    h_[0] = 0x6a09e667u;
    h_[1] = 0xbb67ae85u;
    h_[2] = 0x3c6ef372u;
    h_[3] = 0xa54ff53au;
    h_[4] = 0x510e527fu;
    h_[5] = 0x9b05688cu;
    h_[6] = 0x1f83d9abu;
    h_[7] = 0x5be0cd19u;
    total_bits_ = 0;
    buffered_ = 0;
}

void
Sha256::update(const uint8_t *data, size_t len)
{
    total_bits_ += static_cast<uint64_t>(len) * 8;
    if (buffered_ > 0) {
        const size_t take = std::min(len, sizeof(buffer_) - buffered_);
        std::memcpy(buffer_ + buffered_, data, take);
        buffered_ += take;
        data += take;
        len -= take;
        if (buffered_ == sizeof(buffer_)) {
            compress()(h_, buffer_, 1);
            buffered_ = 0;
        }
    }
    if (len >= sizeof(buffer_)) {
        const size_t blocks = len / sizeof(buffer_);
        compress()(h_, data, blocks);
        data += blocks * sizeof(buffer_);
        len -= blocks * sizeof(buffer_);
    }
    if (len > 0) {
        std::memcpy(buffer_, data, len);
        buffered_ = len;
    }
}

void
Sha256::final(uint8_t digest[kDigestSize])
{
    const uint64_t bits = total_bits_;
    const uint8_t pad = 0x80;
    update(&pad, 1);
    const uint8_t zero = 0x00;
    while (buffered_ != 56)
        update(&zero, 1);
    uint8_t len_be[8];
    util::storeBe64(len_be, bits);
    update(len_be, 8);
    for (int i = 0; i < 8; ++i)
        util::storeBe32(digest + 4 * i, h_[i]);
    reset();
}

std::array<uint8_t, Sha256::kDigestSize>
Sha256::digest(const uint8_t *data, size_t len)
{
    Sha256 hasher;
    hasher.update(data, len);
    std::array<uint8_t, kDigestSize> out;
    hasher.final(out.data());
    return out;
}

// --------------------------------------------------------------------
// HMAC-SHA256
// --------------------------------------------------------------------

std::array<uint8_t, Sha256::kDigestSize>
hmacSha256(const uint8_t *key, size_t key_len, const uint8_t *data,
           size_t data_len)
{
    uint8_t key_block[64] = {};
    if (key_len > 64) {
        const auto hashed = Sha256::digest(key, key_len);
        std::memcpy(key_block, hashed.data(), hashed.size());
    } else {
        std::memcpy(key_block, key, key_len);
    }

    uint8_t ipad[64], opad[64];
    for (int i = 0; i < 64; ++i) {
        ipad[i] = static_cast<uint8_t>(key_block[i] ^ 0x36);
        opad[i] = static_cast<uint8_t>(key_block[i] ^ 0x5c);
    }

    Sha256 inner;
    inner.update(ipad, 64);
    inner.update(data, data_len);
    std::array<uint8_t, Sha256::kDigestSize> inner_digest;
    inner.final(inner_digest.data());

    Sha256 outer;
    outer.update(opad, 64);
    outer.update(inner_digest.data(), inner_digest.size());
    std::array<uint8_t, Sha256::kDigestSize> out;
    outer.final(out.data());
    return out;
}

} // namespace secproc::crypto
