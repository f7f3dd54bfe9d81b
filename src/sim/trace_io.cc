/**
 * @file
 * Trace file serialization implementation.
 */

#include "sim/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "util/logging.hh"

namespace secproc::sim
{

namespace
{

constexpr char kMagic[4] = {'S', 'P', 'T', 'R'};
constexpr uint32_t kVersion = 1;

/** Growable byte sink / cursor-based source. */
class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    varint(uint64_t v)
    {
        while (v >= 0x80) {
            u8(static_cast<uint8_t>(v) | 0x80);
            v >>= 7;
        }
        u8(static_cast<uint8_t>(v));
    }

    void
    zigzag(int64_t v)
    {
        varint((static_cast<uint64_t>(v) << 1) ^
               static_cast<uint64_t>(v >> 63));
    }

    void
    str(const std::string &s)
    {
        varint(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<uint8_t> bytes_;
};

class Reader
{
  public:
    explicit Reader(std::vector<uint8_t> bytes)
        : bytes_(std::move(bytes))
    {}

    uint8_t
    u8()
    {
        fatal_if(pos_ >= bytes_.size(), "trace file truncated");
        return bytes_[pos_++];
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t{u8()} << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= uint64_t{u8()} << (8 * i);
        return v;
    }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    uint64_t
    varint()
    {
        uint64_t v = 0;
        unsigned shift = 0;
        while (true) {
            fatal_if(shift > 63, "trace varint overflows 64 bits");
            const uint8_t byte = u8();
            v |= (uint64_t{byte} & 0x7F) << shift;
            if ((byte & 0x80) == 0)
                return v;
            shift += 7;
        }
    }

    int64_t
    zigzag()
    {
        const uint64_t raw = varint();
        return static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    }

    std::string
    str()
    {
        const uint64_t len = varint();
        fatal_if(len > remaining(), "trace string truncated");
        std::string s(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
                      bytes_.begin() + static_cast<ptrdiff_t>(pos_ + len));
        pos_ += len;
        return s;
    }

    bool done() const { return pos_ == bytes_.size(); }

    /** Bytes not yet read: a bound on any count still to come, since
     *  every counted element takes at least one byte. */
    uint64_t remaining() const { return bytes_.size() - pos_; }

  private:
    std::vector<uint8_t> bytes_;
    size_t pos_ = 0;
};

void
putRegion(Writer &w, const DataRegion &region)
{
    w.u8(static_cast<uint8_t>(region.behavior));
    w.u64(region.footprint);
    w.f64(region.weight);
    w.f64(region.store_frac);
    w.f64(region.zipf_s);
    w.u64(region.stride);
    w.u32(region.burst_length);
    w.u64(region.window_lines);
    w.u64(region.drift_interval);
    w.u64(region.drift_step_lines);
    w.u64(region.conflict_stride);
    w.u64(region.conflict_lines);
    w.u32(region.writes_per_line);
    w.u8(region.plaintext ? 1 : 0);
    w.u8(region.preinitialized ? 1 : 0);
    w.u64(region.base);
}

DataRegion
getRegion(Reader &r)
{
    DataRegion region;
    const uint8_t behavior = r.u8();
    fatal_if(behavior > static_cast<uint8_t>(RegionBehavior::WriteOnce),
             "corrupt region behavior in trace");
    region.behavior = static_cast<RegionBehavior>(behavior);
    region.footprint = r.u64();
    region.weight = r.f64();
    region.store_frac = r.f64();
    region.zipf_s = r.f64();
    region.stride = r.u64();
    region.burst_length = r.u32();
    region.window_lines = r.u64();
    region.drift_interval = r.u64();
    region.drift_step_lines = r.u64();
    region.conflict_stride = r.u64();
    region.conflict_lines = r.u64();
    region.writes_per_line = r.u32();
    region.plaintext = r.u8() != 0;
    region.preinitialized = r.u8() != 0;
    region.base = r.u64();
    return region;
}

void
putProfile(Writer &w, const WorkloadProfile &profile)
{
    w.str(profile.name);
    w.f64(profile.mem_frac);
    w.f64(profile.branch_frac);
    w.f64(profile.mispredict_rate);
    w.f64(profile.mul_frac);
    w.f64(profile.fp_frac);
    w.u64(profile.code_footprint);
    w.f64(profile.jump_frac);
    w.f64(profile.dep_p);
    w.u64(profile.rng_seed);
    w.u64(profile.va_offset);
    w.varint(profile.regions.size());
    for (const DataRegion &region : profile.regions)
        putRegion(w, region);
}

/** Bytes of address space @p region spans; fatal above the cap. */
uint64_t
regionExtent(const DataRegion &region)
{
    uint64_t extent = region.footprint;
    if (region.behavior == RegionBehavior::ConflictStream &&
        region.conflict_lines > 0) {
        fatal_if(region.conflict_stride >
                     kMaxRegionBytes / region.conflict_lines,
                 "trace conflict ring of ", region.conflict_lines,
                 " lines ", region.conflict_stride,
                 " bytes apart exceeds the ", kMaxRegionBytes,
                 "-byte region cap");
        extent = std::max(extent,
                          region.conflict_lines * region.conflict_stride);
    }
    fatal_if(extent > kMaxRegionBytes, "trace region of ", extent,
             " bytes exceeds the ", kMaxRegionBytes, "-byte region cap");
    return extent;
}

/**
 * The layout a System may warm: capped extents, no region whose end
 * wraps, no two regions sharing a byte.
 */
void
checkLayout(const WorkloadProfile &profile)
{
    fatal_if(profile.code_footprint > kMaxRegionBytes,
             "trace text segment of ", profile.code_footprint,
             " bytes exceeds the ", kMaxRegionBytes, "-byte region cap");
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    for (const DataRegion &region : profile.regions) {
        const uint64_t extent = regionExtent(region);
        fatal_if(extent > ~uint64_t{0} - region.base, "trace region at ",
                 region.base, " of ", extent,
                 " bytes wraps the address space");
        if (extent > 0)
            spans.emplace_back(region.base, region.base + extent);
    }
    std::sort(spans.begin(), spans.end());
    for (size_t i = 1; i < spans.size(); ++i) {
        fatal_if(spans[i].first < spans[i - 1].second,
                 "trace regions overlap: [", spans[i - 1].first, ", ",
                 spans[i - 1].second, ") and [", spans[i].first, ", ",
                 spans[i].second, ")");
    }
}

WorkloadProfile
getProfile(Reader &r)
{
    WorkloadProfile profile;
    profile.name = r.str();
    profile.mem_frac = r.f64();
    profile.branch_frac = r.f64();
    profile.mispredict_rate = r.f64();
    profile.mul_frac = r.f64();
    profile.fp_frac = r.f64();
    profile.code_footprint = r.u64();
    profile.jump_frac = r.f64();
    profile.dep_p = r.f64();
    profile.rng_seed = r.u64();
    profile.va_offset = r.u64();
    const uint64_t regions = r.varint();
    fatal_if(regions > 1024, "implausible region count in trace");
    for (uint64_t i = 0; i < regions; ++i)
        profile.regions.push_back(getRegion(r));
    checkLayout(profile);
    return profile;
}

} // namespace

void
writeTrace(const std::string &path, const TraceImage &image)
{
    Writer w;
    for (const char c : kMagic)
        w.u8(static_cast<uint8_t>(c));
    w.u32(kVersion);
    putProfile(w, image.profile);

    w.varint(image.live_lines.size());
    for (const auto &lines : image.live_lines) {
        w.varint(lines.size());
        uint64_t prev = 0;
        for (const uint64_t line : lines) {
            w.zigzag(static_cast<int64_t>(line - prev));
            prev = line;
        }
    }

    w.u64(image.ops.size());
    uint64_t prev_addr = 0;
    uint64_t prev_fetch = 0;
    for (const TraceOp &op : image.ops) {
        const bool has_addr = op.addr != 0;
        const bool has_fetch = op.fetch_line != 0;
        const bool has_dep1 = op.dep1 != 0;
        const bool has_dep2 = op.dep2 != 0;
        uint8_t header = static_cast<uint8_t>(op.cls) & 0x07;
        header |= op.mispredict ? 0x08 : 0;
        header |= has_addr ? 0x10 : 0;
        header |= has_fetch ? 0x20 : 0;
        header |= has_dep1 ? 0x40 : 0;
        header |= has_dep2 ? 0x80 : 0;
        w.u8(header);
        if (has_addr) {
            w.zigzag(static_cast<int64_t>(op.addr - prev_addr));
            prev_addr = op.addr;
        }
        if (has_fetch) {
            w.zigzag(static_cast<int64_t>(op.fetch_line - prev_fetch));
            prev_fetch = op.fetch_line;
        }
        if (has_dep1)
            w.u8(op.dep1);
        if (has_dep2)
            w.u8(op.dep2);
    }

    FILE *file = std::fopen(path.c_str(), "wb");
    fatal_if(file == nullptr, "cannot open trace file ", path,
             " for writing");
    const size_t written = std::fwrite(w.bytes().data(), 1,
                                       w.bytes().size(), file);
    std::fclose(file);
    fatal_if(written != w.bytes().size(), "short write to ", path);
}

void
recordTrace(const std::string &path, Workload &workload, uint64_t count)
{
    TraceImage image;
    image.profile = workload.profile();
    for (size_t i = 0; i < image.profile.regions.size(); ++i)
        image.live_lines.push_back(workload.liveLines(i));
    image.ops.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        image.ops.push_back(workload.next());
    writeTrace(path, image);
}

TraceImage
readTrace(const std::string &path)
{
    FILE *file = std::fopen(path.c_str(), "rb");
    fatal_if(file == nullptr, "cannot open trace file ", path);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    const size_t read = std::fread(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    fatal_if(read != bytes.size(), "short read from ", path);

    Reader r(std::move(bytes));
    for (const char c : kMagic) {
        fatal_if(r.u8() != static_cast<uint8_t>(c),
                 "not a secproc trace file: ", path);
    }
    fatal_if(r.u32() != kVersion, "unsupported trace version in ",
             path);

    TraceImage image;
    image.profile = getProfile(r);

    const uint64_t region_lists = r.varint();
    fatal_if(region_lists != image.profile.regions.size(),
             "trace live-line lists do not match regions");
    for (uint64_t i = 0; i < region_lists; ++i) {
        const uint64_t count = r.varint();
        fatal_if(count > r.remaining(), "trace live-line list truncated");
        std::vector<uint64_t> lines;
        lines.reserve(count);
        uint64_t prev = 0;
        for (uint64_t j = 0; j < count; ++j) {
            prev += static_cast<uint64_t>(r.zigzag());
            lines.push_back(prev);
        }
        image.live_lines.push_back(std::move(lines));
    }

    const uint64_t ops = r.u64();
    fatal_if(ops > r.remaining(), "trace op stream truncated");
    image.ops.reserve(ops);
    uint64_t prev_addr = 0;
    uint64_t prev_fetch = 0;
    for (uint64_t i = 0; i < ops; ++i) {
        const uint8_t header = r.u8();
        TraceOp op;
        op.cls = static_cast<OpClass>(header & 0x07);
        fatal_if(static_cast<uint8_t>(op.cls) >
                     static_cast<uint8_t>(OpClass::Branch),
                 "corrupt op class in trace");
        op.mispredict = (header & 0x08) != 0;
        if ((header & 0x10) != 0) {
            prev_addr += static_cast<uint64_t>(r.zigzag());
            op.addr = prev_addr;
        }
        if ((header & 0x20) != 0) {
            prev_fetch += static_cast<uint64_t>(r.zigzag());
            op.fetch_line = prev_fetch;
        }
        if ((header & 0x40) != 0)
            op.dep1 = r.u8();
        if ((header & 0x80) != 0)
            op.dep2 = r.u8();
        image.ops.push_back(op);
    }
    fatal_if(!r.done(), "trailing bytes in trace file ", path);
    return image;
}

TraceWorkload::TraceWorkload(const std::string &path)
    : image_(readTrace(path))
{
    fatal_if(image_.ops.empty(), "trace has no ops");
}

TraceWorkload::TraceWorkload(TraceImage image)
    : image_(std::move(image))
{
    fatal_if(image_.ops.empty(), "trace has no ops");
}

const TraceOp &
TraceWorkload::next()
{
    const TraceOp &op = image_.ops[position_];
    if (++position_ == image_.ops.size()) {
        position_ = 0;
        ++wraps_;
    }
    return op;
}

void
TraceWorkload::reset()
{
    position_ = 0;
    wraps_ = 0;
}

std::vector<uint64_t>
TraceWorkload::liveLines(size_t region_idx) const
{
    fatal_if(region_idx >= image_.live_lines.size(),
             "no live-line list for region ", region_idx);
    return image_.live_lines[region_idx];
}

} // namespace secproc::sim
