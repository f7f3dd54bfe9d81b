/**
 * @file
 * Delta bundle serialization, diff and apply.
 */

#include "update/delta.hh"

#include <algorithm>
#include <unordered_map>

#include "util/serialize.hh"

namespace secproc::update
{

namespace
{

constexpr uint32_t kDeltaMagic = 0x53505544; // "SPUD"
constexpr uint32_t kMaxSections = 1024;
/** Aligned diff granularity. Small enough to catch sub-line edits,
 *  large enough that op overhead (~20 B) stays ~3% of a copy run. */
constexpr uint64_t kDiffBlock = 64;

/** Coalescing op-list builder: adjacent copies fuse when contiguous
 *  in the source, adjacent literals always fuse. */
class OpBuilder
{
  public:
    void
    copy(uint64_t src_offset, uint64_t len, const uint8_t *)
    {
        if (!ops_.empty() && ops_.back().kind == DeltaOp::Kind::Copy &&
            ops_.back().src_offset + ops_.back().length == src_offset) {
            ops_.back().length += len;
            return;
        }
        DeltaOp op;
        op.kind = DeltaOp::Kind::Copy;
        op.src_offset = src_offset;
        op.length = len;
        ops_.push_back(std::move(op));
    }

    void
    literal(const uint8_t *data, uint64_t len)
    {
        if (ops_.empty() || ops_.back().kind != DeltaOp::Kind::Literal) {
            DeltaOp op;
            op.kind = DeltaOp::Kind::Literal;
            ops_.push_back(std::move(op));
        }
        DeltaOp &op = ops_.back();
        op.literal.insert(op.literal.end(), data, data + len);
        op.length = op.literal.size();
    }

    std::vector<DeltaOp> take() { return std::move(ops_); }

  private:
    std::vector<DeltaOp> ops_;
};

std::vector<DeltaOp>
diffSection(const std::vector<uint8_t> &base,
            const std::vector<uint8_t> &next)
{
    OpBuilder builder;
    // Aligned block walk over the overlap: delta-friendly builds keep
    // unchanged content at unchanged offsets (same layout, same key),
    // so equal-offset comparison finds essentially every shared run.
    const uint64_t overlap = std::min<uint64_t>(base.size(),
                                                next.size());
    uint64_t pos = 0;
    for (; pos + kDiffBlock <= overlap; pos += kDiffBlock) {
        if (std::equal(next.begin() + pos,
                       next.begin() + pos + kDiffBlock,
                       base.begin() + pos))
            builder.copy(pos, kDiffBlock, base.data() + pos);
        else
            builder.literal(next.data() + pos, kDiffBlock);
    }
    if (pos < next.size())
        builder.literal(next.data() + pos, next.size() - pos);
    return builder.take();
}

} // namespace

uint64_t
DeltaSection::literalBytes() const
{
    uint64_t total = 0;
    for (const DeltaOp &op : ops)
        if (op.kind == DeltaOp::Kind::Literal)
            total += op.literal.size();
    return total;
}

uint64_t
DeltaBundle::literalBytes() const
{
    uint64_t total = key_capsule.size();
    for (const DeltaSection &section : sections)
        total += section.literalBytes();
    return total;
}

void
DeltaBundle::serializeTo(util::ByteSink &sink) const
{
    using namespace util;
    putU32(sink, kDeltaMagic);
    putU32(sink, kFormatVersion);
    putBlob(sink, manifest.serialize());
    putBlob(sink, signature);
    putBlob(sink, key_capsule);
    putU32(sink, static_cast<uint32_t>(sections.size()));
    for (const DeltaSection &section : sections) {
        putString(sink, section.name);
        putU64(sink, section.vaddr);
        putU32(sink, static_cast<uint32_t>(section.encryption));
        putU64(sink, section.out_size);
        putU32(sink, static_cast<uint32_t>(section.ops.size()));
        for (const DeltaOp &op : section.ops) {
            putU32(sink, static_cast<uint32_t>(op.kind));
            if (op.kind == DeltaOp::Kind::Copy) {
                putU64(sink, op.src_offset);
                putU64(sink, op.length);
            } else {
                putBlob(sink, op.literal);
            }
        }
    }
}

uint64_t
DeltaBundle::serializedSize() const
{
    util::CountingSink counter;
    serializeTo(counter);
    return counter.total();
}

std::vector<uint8_t>
DeltaBundle::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(serializedSize());
    util::VectorSink sink(out);
    serializeTo(sink);
    return out;
}

std::optional<DeltaBundle>
DeltaBundle::deserialize(std::span<const uint8_t> data)
{
    util::ByteReader reader(data);
    if (reader.u32() != kDeltaMagic)
        return std::nullopt;
    if (reader.u32() != kFormatVersion)
        return std::nullopt;
    const std::span<const uint8_t> manifest_bytes = reader.blobView();
    const auto manifest = UpdateManifest::deserialize(manifest_bytes);
    if (!manifest.has_value())
        return std::nullopt;

    DeltaBundle delta;
    delta.manifest = *manifest;
    delta.signature = reader.blob();
    delta.key_capsule = reader.blob();
    const uint32_t nsections = reader.u32();
    if (!reader.ok() || nsections > kMaxSections)
        return std::nullopt;
    for (uint32_t i = 0; i < nsections; ++i) {
        DeltaSection section;
        section.name = reader.str();
        section.vaddr = reader.u64();
        const uint32_t encryption = reader.u32();
        if (encryption >
            static_cast<uint32_t>(xom::SectionEncryption::Plaintext))
            return std::nullopt;
        section.encryption =
            static_cast<xom::SectionEncryption>(encryption);
        section.out_size = reader.u64();
        const uint32_t nops = reader.u32();
        if (!reader.ok())
            return std::nullopt;
        // Every op consumes ≥4 bytes of input, so nops is implicitly
        // bounded by the buffer; no separate cap needed to stop an
        // allocation bomb (the reserve below is what would amplify).
        for (uint32_t j = 0; j < nops; ++j) {
            DeltaOp op;
            const uint32_t kind = reader.u32();
            if (kind == static_cast<uint32_t>(DeltaOp::Kind::Copy)) {
                op.kind = DeltaOp::Kind::Copy;
                op.src_offset = reader.u64();
                op.length = reader.u64();
            } else if (kind ==
                       static_cast<uint32_t>(DeltaOp::Kind::Literal)) {
                op.kind = DeltaOp::Kind::Literal;
                op.literal = reader.blob();
                op.length = op.literal.size();
            } else {
                return std::nullopt;
            }
            if (!reader.ok())
                return std::nullopt;
            section.ops.push_back(std::move(op));
        }
        delta.sections.push_back(std::move(section));
    }
    if (!reader.atEnd())
        return std::nullopt;
    return delta;
}

std::vector<DeltaSection>
diffImages(const xom::ProgramImage &base_image,
           const xom::ProgramImage &next_image)
{
    std::unordered_map<std::string, const xom::Section *> base_by_name;
    for (const xom::Section &section : base_image.sections)
        base_by_name.emplace(section.name, &section);

    std::vector<DeltaSection> out;
    for (const xom::Section &next : next_image.sections) {
        DeltaSection ds;
        ds.name = next.name;
        ds.vaddr = next.vaddr;
        ds.encryption = next.encryption;
        ds.out_size = next.bytes.size();

        const auto it = base_by_name.find(next.name);
        const xom::Section *base =
            it == base_by_name.end() ? nullptr : it->second;
        // A moved or re-moded section re-encrypts differently anyway
        // (VA-seeded pads); ship it literal rather than diffing noise.
        if (base != nullptr && base->vaddr == next.vaddr &&
            base->encryption == next.encryption) {
            ds.ops = diffSection(base->bytes, next.bytes);
        } else {
            OpBuilder builder;
            if (!next.bytes.empty())
                builder.literal(next.bytes.data(), next.bytes.size());
            ds.ops = builder.take();
        }
        out.push_back(std::move(ds));
    }
    return out;
}

std::optional<xom::ProgramImage>
applyDelta(const DeltaBundle &delta,
           const xom::ProgramImage &base_image)
{
    const UpdateManifest &manifest = delta.manifest;
    // The section list must correspond 1:1 with the signed manifest;
    // out_size == the signed size bounds every allocation below by
    // data the vendor vouched for, so a hostile delta cannot balloon
    // memory before the digest check kills it.
    if (delta.sections.size() != manifest.sections.size())
        return std::nullopt;

    std::unordered_map<std::string, const xom::Section *> base_by_name;
    for (const xom::Section &section : base_image.sections)
        base_by_name.emplace(section.name, &section);

    xom::ProgramImage image;
    image.title = manifest.title;
    image.cipher = manifest.cipher;
    image.entry_point = manifest.entry_point;
    image.line_size = manifest.line_size;
    image.key_capsule = delta.key_capsule;

    for (size_t i = 0; i < delta.sections.size(); ++i) {
        const DeltaSection &ds = delta.sections[i];
        const SectionDigest &sd = manifest.sections[i];
        if (ds.name != sd.name || ds.vaddr != sd.vaddr ||
            ds.out_size != sd.size)
            return std::nullopt;

        const auto it = base_by_name.find(ds.name);
        const xom::Section *base =
            it == base_by_name.end() ? nullptr : it->second;

        xom::Section section;
        section.name = ds.name;
        section.vaddr = ds.vaddr;
        section.encryption = ds.encryption;
        section.bytes.reserve(ds.out_size);
        for (const DeltaOp &op : ds.ops) {
            if (op.kind == DeltaOp::Kind::Copy) {
                if (base == nullptr)
                    return std::nullopt;
                const uint64_t base_size = base->bytes.size();
                if (op.src_offset > base_size ||
                    op.length > base_size - op.src_offset)
                    return std::nullopt;
                if (section.bytes.size() + op.length > ds.out_size)
                    return std::nullopt;
                section.bytes.insert(
                    section.bytes.end(),
                    base->bytes.begin() + op.src_offset,
                    base->bytes.begin() + op.src_offset + op.length);
            } else {
                if (section.bytes.size() + op.literal.size() >
                    ds.out_size)
                    return std::nullopt;
                section.bytes.insert(section.bytes.end(),
                                     op.literal.begin(),
                                     op.literal.end());
            }
        }
        if (section.bytes.size() != ds.out_size)
            return std::nullopt;
        image.sections.push_back(std::move(section));
    }
    return image;
}

} // namespace secproc::update
