/**
 * @file
 * Program image serialization.
 *
 * Simple length-prefixed binary format:
 *   magic "SPIM" | u32 version | cipher | u64 entry | u32 line |
 *   title | capsule | u32 nsections | sections...
 * Each string/blob is u32 length + bytes.
 */

#include "xom/program_image.hh"

#include "util/serialize.hh"

namespace secproc::xom
{

namespace
{

constexpr uint32_t kMagic = 0x5350494D; // "SPIM"
constexpr uint32_t kVersion = 1;
constexpr uint32_t kMaxSections = 1024;

} // namespace

uint64_t
ProgramImage::totalBytes() const
{
    uint64_t total = 0;
    for (const Section &section : sections)
        total += section.bytes.size();
    return total;
}

void
ProgramImage::serializeTo(util::ByteSink &sink) const
{
    using namespace util;
    putU32(sink, kMagic);
    putU32(sink, kVersion);
    putU32(sink, static_cast<uint32_t>(cipher));
    putU64(sink, entry_point);
    putU32(sink, line_size);
    putString(sink, title);
    putBlob(sink, key_capsule);
    putU32(sink, static_cast<uint32_t>(sections.size()));
    for (const Section &section : sections) {
        putString(sink, section.name);
        putU64(sink, section.vaddr);
        putU32(sink, static_cast<uint32_t>(section.encryption));
        putBlob(sink, section.bytes);
    }
}

uint64_t
ProgramImage::serializedSize() const
{
    util::CountingSink counter;
    serializeTo(counter);
    return counter.total();
}

std::vector<uint8_t>
ProgramImage::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(serializedSize());
    util::VectorSink sink(out);
    serializeTo(sink);
    return out;
}

std::optional<ProgramImage>
ProgramImage::tryDeserialize(std::span<const uint8_t> data)
{
    util::ByteReader reader(data);
    if (reader.u32() != kMagic || reader.u32() != kVersion)
        return std::nullopt;
    ProgramImage image;
    // Same trust boundary as the manifest parser: enum fields are
    // attacker bytes until validated, and a raw cast would carry an
    // out-of-range kind into a downstream panic.
    const auto cipher = secure::cipherKindFromU32(reader.u32());
    if (!cipher.has_value())
        return std::nullopt;
    image.cipher = *cipher;
    image.entry_point = reader.u64();
    image.line_size = reader.u32();
    image.title = reader.str();
    image.key_capsule = reader.blob();
    const uint32_t nsections = reader.u32();
    if (!reader.ok() || nsections > kMaxSections)
        return std::nullopt;
    for (uint32_t i = 0; i < nsections; ++i) {
        Section section;
        section.name = reader.str();
        section.vaddr = reader.u64();
        const uint32_t encryption = reader.u32();
        if (encryption >
            static_cast<uint32_t>(SectionEncryption::Plaintext))
            return std::nullopt;
        section.encryption = static_cast<SectionEncryption>(encryption);
        section.bytes = reader.blob();
        image.sections.push_back(std::move(section));
    }
    if (!reader.atEnd())
        return std::nullopt;
    return image;
}

} // namespace secproc::xom
