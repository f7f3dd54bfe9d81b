/**
 * @file
 * Two-level radix-indexed array for the memory plane's page- and
 * line-granular tables (main-memory page directory, per-ASID page
 * tables, MAC and line-state tables, wide cache directories).
 *
 * These tables are keyed by page/line indices that arrive in long
 * sequential runs (program footprints, install streams), which an
 * open-addressing hash map scatters across its whole backing array —
 * every probe is a cache miss once the table outgrows L2. The radix
 * layout keeps neighbouring indices in the same group, so a walk
 * costs one directory load plus one in-group access, and sequential
 * sweeps stay inside a hot group.
 *
 * Shape: index -> [group number | offset]. Group numbers below
 * kDenseGroups live in a dense directory vector (one pointer each);
 * rarer high groups (mmap-style high virtual addresses, synthetic
 * table proxies above 2^40) go to a sorted overflow vector with
 * binary-search lookup, so a single touch of a huge address cannot
 * balloon the directory. Groups carry a validity bitmap — value
 * zero is a legal stored value (MACs, cipher states).
 *
 * Entries are stable once touched (groups never move); pointers from
 * find()/touch() are invalidated only by erase() of that entry or
 * clear().
 */

#ifndef SECPROC_UTIL_RADIX_ARRAY_HH
#define SECPROC_UTIL_RADIX_ARRAY_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace secproc::util
{

/** Sparse uint64-indexed array with dense radix groups. */
template <typename T, unsigned kGroupBits = 9>
class RadixArray
{
    struct Group;

  public:
    static constexpr size_t kGroupEntries = size_t{1} << kGroupBits;

    /** Entry for @p index, or nullptr when never touched/erased. */
    T *
    find(uint64_t index)
    {
        Group *group = findGroup(index >> kGroupBits);
        if (group == nullptr)
            return nullptr;
        const size_t offset = index & (kGroupEntries - 1);
        return group->test(offset) ? &group->entries[offset] : nullptr;
    }

    const T *
    find(uint64_t index) const
    {
        return const_cast<RadixArray *>(this)->find(index);
    }

    bool contains(uint64_t index) const { return find(index) != nullptr; }

    /** Entry for @p index, default-constructed on first touch. */
    T &
    touch(uint64_t index)
    {
        return touchEntry(touchGroup(index >> kGroupBits),
                          index & (kGroupEntries - 1));
    }

    /**
     * touch() and find() through the last group resolved, for runs of
     * nearby indices (a machine's warm start writes every line of a
     * region): each radix group is resolved once per run instead of
     * once per entry. Valid until the array is cleared.
     */
    class Cursor
    {
      public:
        explicit Cursor(RadixArray &array) : array_(array) {}

        T &
        touch(uint64_t index)
        {
            const uint64_t number = index >> kGroupBits;
            if (group_ == nullptr || number != number_) {
                group_ = &array_.touchGroup(number);
                number_ = number;
            }
            return array_.touchEntry(*group_, index & (kGroupEntries - 1));
        }

        /** RadixArray::find, through the last group resolved. */
        T *
        find(uint64_t index)
        {
            const uint64_t number = index >> kGroupBits;
            if (group_ == nullptr || number != number_) {
                group_ = array_.findGroup(number);
                number_ = number;
                if (group_ == nullptr)
                    return nullptr;
            }
            const size_t offset = index & (kGroupEntries - 1);
            return group_->test(offset) ? &group_->entries[offset] : nullptr;
        }

      private:
        RadixArray &array_;
        uint64_t number_ = 0;
        Group *group_ = nullptr;
    };

    /** Insert or overwrite. @return the stored entry. */
    T &
    insert(uint64_t index, T value)
    {
        T &slot = touch(index);
        slot = std::move(value);
        return slot;
    }

    /** Remove @p index. @return true when it was present. */
    bool
    erase(uint64_t index)
    {
        Group *group = findGroup(index >> kGroupBits);
        if (group == nullptr)
            return false;
        const size_t offset = index & (kGroupEntries - 1);
        if (!group->test(offset))
            return false;
        group->reset(offset);
        group->entries[offset] = T{};
        --size_;
        return true;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Drop every entry and group. */
    void
    clear()
    {
        dense_.clear();
        overflow_.clear();
        size_ = 0;
    }

    /**
     * Visit every valid entry in ascending index order. @p fn is
     * called as fn(index, T&); mutating the entry is allowed,
     * touching/erasing other entries is not.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (size_t g = 0; g < dense_.size(); ++g) {
            if (dense_[g] != nullptr)
                visitGroup(static_cast<uint64_t>(g), *dense_[g], fn);
        }
        for (auto &[g, group] : overflow_)
            visitGroup(g, *group, fn);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const_cast<RadixArray *>(this)->forEach(
            [&fn](uint64_t index, T &value) {
                fn(index, static_cast<const T &>(value));
            });
    }

  private:
    /** Group numbers below this live in the dense directory. */
    static constexpr uint64_t kDenseGroups = uint64_t{1} << 21;

    struct Group
    {
        std::array<uint64_t, kGroupEntries / 64> valid{};
        std::array<T, kGroupEntries> entries{};

        bool
        test(size_t offset) const
        {
            return (valid[offset / 64] >> (offset % 64)) & 1;
        }
        void set(size_t offset) { valid[offset / 64] |= 1ull << (offset % 64); }
        void reset(size_t offset)
        {
            valid[offset / 64] &= ~(1ull << (offset % 64));
        }
    };

    /** Entry @p offset of @p group, default-constructed on first touch. */
    T &
    touchEntry(Group &group, size_t offset)
    {
        if (!group.test(offset)) {
            group.set(offset);
            group.entries[offset] = T{};
            ++size_;
        }
        return group.entries[offset];
    }

    Group *
    findGroup(uint64_t number) const
    {
        if (number < kDenseGroups) {
            return number < dense_.size() ? dense_[number].get()
                                          : nullptr;
        }
        const auto it = std::lower_bound(
            overflow_.begin(), overflow_.end(), number,
            [](const auto &entry, uint64_t n) {
                return entry.first < n;
            });
        return it != overflow_.end() && it->first == number
                   ? it->second.get()
                   : nullptr;
    }

    Group &
    touchGroup(uint64_t number)
    {
        if (number < kDenseGroups) {
            if (number >= dense_.size()) {
                dense_.resize(std::max<size_t>(
                    static_cast<size_t>(number) + 1,
                    dense_.size() * 2));
            }
            auto &slot = dense_[number];
            if (slot == nullptr)
                slot = std::make_unique<Group>();
            return *slot;
        }
        auto it = std::lower_bound(
            overflow_.begin(), overflow_.end(), number,
            [](const auto &entry, uint64_t n) {
                return entry.first < n;
            });
        if (it == overflow_.end() || it->first != number) {
            it = overflow_.emplace(it, number,
                                   std::make_unique<Group>());
        }
        return *it->second;
    }

    template <typename Fn>
    void
    visitGroup(uint64_t number, Group &group, Fn &fn)
    {
        for (size_t word = 0; word < group.valid.size(); ++word) {
            uint64_t bits = group.valid[word];
            while (bits != 0) {
                const unsigned bit =
                    static_cast<unsigned>(std::countr_zero(bits));
                bits &= bits - 1;
                const size_t offset = word * 64 + bit;
                fn((number << kGroupBits) | offset,
                   group.entries[offset]);
            }
        }
    }

    std::vector<std::unique_ptr<Group>> dense_;
    /** Sorted by group number; high addresses only. */
    std::vector<std::pair<uint64_t, std::unique_ptr<Group>>> overflow_;
    size_t size_ = 0;
};

} // namespace secproc::util

#endif // SECPROC_UTIL_RADIX_ARRAY_HH
