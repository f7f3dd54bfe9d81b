/**
 * @file
 * Manifest and bundle serialization.
 *
 * Length-prefixed binary via util/serialize, parsed with the
 * soft-failing ByteReader: update bundles cross a trust boundary,
 * so malformed input must surface as a rejection the UpdateEngine
 * can report, not a fatal().
 *
 *   manifest: magic "SPUM" | u32 version | title | u32 image_version |
 *             u64 rollback | processor_id | u32 cipher | u64 entry |
 *             u32 line | image_digest | capsule_digest | base_digest |
 *             u32 nsections | { name u64 vaddr u64 size digest }...
 *   bundle:   magic "SPUB" | manifest blob | signature blob |
 *             u64-framed image blob
 *
 * Format rev 2 (delta updates): the manifest carries the signed
 * base-image digest, and the bundle's image blob is framed with a
 * u64 length — the old u32 frame silently truncated
 * image.serializedSize() for ≥4 GiB images.
 */

#include "update/manifest.hh"

#include "util/serialize.hh"

namespace secproc::update
{

namespace
{

constexpr uint32_t kManifestMagic = 0x5350554D; // "SPUM"
constexpr uint32_t kBundleMagic = 0x53505542;   // "SPUB"
constexpr uint32_t kMaxSections = 1024;

} // namespace

Digest
sha256Digest(const uint8_t *data, size_t len)
{
    return crypto::Sha256::digest(data, len);
}

Digest
sha256Digest(const std::vector<uint8_t> &data)
{
    return crypto::Sha256::digest(data.data(), data.size());
}

Digest
sha256DigestOfImage(const xom::ProgramImage &image)
{
    crypto::Sha256Sink sink;
    image.serializeTo(sink);
    return sink.digest();
}

Digest
processorId(const crypto::RsaPublicKey &pub)
{
    std::vector<uint8_t> material = pub.n.toBytes();
    const std::vector<uint8_t> e = pub.e.toBytes();
    material.insert(material.end(), e.begin(), e.end());
    return sha256Digest(material);
}

UpdateManifest
describeImage(const xom::ProgramImage &image,
              const crypto::RsaPublicKey &processor)
{
    UpdateManifest manifest;
    manifest.title = image.title;
    manifest.processor_id = processorId(processor);
    manifest.cipher = image.cipher;
    manifest.entry_point = image.entry_point;
    manifest.line_size = image.line_size;
    manifest.image_digest = sha256DigestOfImage(image);
    manifest.capsule_digest = sha256Digest(image.key_capsule);
    for (const xom::Section &section : image.sections) {
        SectionDigest sd;
        sd.name = section.name;
        sd.vaddr = section.vaddr;
        sd.size = section.bytes.size();
        sd.digest = sha256Digest(section.bytes);
        manifest.sections.push_back(std::move(sd));
    }
    return manifest;
}

std::vector<uint8_t>
UpdateManifest::serialize() const
{
    using namespace util;
    std::vector<uint8_t> out;
    putU32(out, kManifestMagic);
    putU32(out, kFormatVersion);
    putString(out, title);
    putU32(out, image_version);
    putU64(out, rollback_counter);
    putArray(out, processor_id);
    putU32(out, static_cast<uint32_t>(cipher));
    putU64(out, entry_point);
    putU32(out, line_size);
    putArray(out, image_digest);
    putArray(out, capsule_digest);
    putArray(out, base_digest);
    putU32(out, static_cast<uint32_t>(sections.size()));
    for (const SectionDigest &sd : sections) {
        putString(out, sd.name);
        putU64(out, sd.vaddr);
        putU64(out, sd.size);
        putArray(out, sd.digest);
    }
    return out;
}

std::optional<UpdateManifest>
UpdateManifest::deserialize(std::span<const uint8_t> data)
{
    util::ByteReader reader(data);
    if (reader.u32() != kManifestMagic)
        return std::nullopt;
    if (reader.u32() != kFormatVersion)
        return std::nullopt;
    UpdateManifest manifest;
    manifest.title = reader.str();
    manifest.image_version = reader.u32();
    manifest.rollback_counter = reader.u64();
    manifest.processor_id = reader.array<32>();
    // The cipher field is attacker-controlled: an out-of-range value
    // must die here as a malformed manifest, not survive the cast to
    // panic inside makeCipher()/cipherKeySize() after verification.
    const auto cipher = secure::cipherKindFromU32(reader.u32());
    if (!cipher.has_value())
        return std::nullopt;
    manifest.cipher = *cipher;
    manifest.entry_point = reader.u64();
    manifest.line_size = reader.u32();
    manifest.image_digest = reader.array<32>();
    manifest.capsule_digest = reader.array<32>();
    manifest.base_digest = reader.array<32>();
    const uint32_t nsections = reader.u32();
    if (!reader.ok() || nsections > kMaxSections)
        return std::nullopt;
    for (uint32_t i = 0; i < nsections; ++i) {
        SectionDigest sd;
        sd.name = reader.str();
        sd.vaddr = reader.u64();
        sd.size = reader.u64();
        sd.digest = reader.array<32>();
        manifest.sections.push_back(std::move(sd));
    }
    if (!reader.atEnd())
        return std::nullopt;
    return manifest;
}

Digest
UpdateManifest::digest() const
{
    return sha256Digest(serialize());
}

bool
UpdateManifest::hasBase() const
{
    for (const uint8_t byte : base_digest)
        if (byte != 0)
            return true;
    return false;
}

void
UpdateBundle::serializeTo(util::ByteSink &sink) const
{
    using namespace util;
    putU32(sink, kBundleMagic);
    putBlob(sink, manifest.serialize());
    putBlob(sink, signature);
    // Stream the image blob: u64 length, then the image bytes fed
    // straight from its sections — no multi-megabyte intermediate.
    // u64 framing because serializedSize() can exceed the u32 range;
    // the old u32 cast framed ≥4 GiB images silently corrupt.
    putU64(sink, image.serializedSize());
    image.serializeTo(sink);
}

uint64_t
UpdateBundle::serializedSize() const
{
    util::CountingSink counter;
    serializeTo(counter);
    return counter.total();
}

std::vector<uint8_t>
UpdateBundle::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(serializedSize());
    util::VectorSink sink(out);
    serializeTo(sink);
    return out;
}

std::optional<UpdateBundle>
UpdateBundle::deserialize(std::span<const uint8_t> data)
{
    util::ByteReader reader(data);
    if (reader.u32() != kBundleMagic)
        return std::nullopt;
    const std::span<const uint8_t> manifest_bytes = reader.blobView();
    const std::span<const uint8_t> signature = reader.blobView();
    const std::span<const uint8_t> image_bytes = reader.blobView64();
    if (!reader.atEnd())
        return std::nullopt;

    const auto manifest = UpdateManifest::deserialize(manifest_bytes);
    if (!manifest.has_value())
        return std::nullopt;

    // No digest check here: parsing only establishes structure. The
    // authoritative integrity check is UpdateEngine::verify, which
    // every caller runs on the parsed bundle before trusting it — a
    // digest-only gate adds no authentication (an attacker who edits
    // the image can recompute the unsigned digest) but costs a full
    // multi-megabyte hash per parse.
    auto image = xom::ProgramImage::tryDeserialize(image_bytes);
    if (!image.has_value())
        return std::nullopt;

    UpdateBundle bundle;
    bundle.manifest = *manifest;
    bundle.signature.assign(signature.begin(), signature.end());
    bundle.image = std::move(*image);
    return bundle;
}

} // namespace secproc::update
