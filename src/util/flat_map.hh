/**
 * @file
 * Open-addressing hash map for the simulator's hot tables keyed by
 * scattered uint64 values: the OTP engine's pad-prediction buffer,
 * keyed by pad seed. Tables keyed by line or page index (cache
 * directories, sequence-number and line-state tables) use
 * util::RadixArray instead, whose groups keep sequential runs
 * together.
 *
 * std::unordered_map's node allocation and pointer chasing dominate
 * the profile once the crypto substrate is fast. This map stores
 * slots inline in one contiguous array with linear probing, a strong
 * multiplicative mix (keys may have structured low bits), and
 * Knuth-style backward-shift deletion so no tombstones accumulate
 * under heavy insert/erase churn.
 *
 * Deliberately minimal: uint64_t keys only, no iterators (none of
 * the simulator's tables are iterated — lookups, inserts and erases
 * only), pointers invalidated by any mutation. find() returns a
 * Value* so call sites read naturally and the miss path costs one
 * branch.
 */

#ifndef SECPROC_UTIL_FLAT_MAP_HH
#define SECPROC_UTIL_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitops.hh"

namespace secproc::util
{

/** Open-addressing uint64 -> Value map. Not iterable by design. */
template <typename Value>
class FlatMap
{
  public:
    FlatMap() { rehash(kMinCapacity); }

    /** Value for @p key, or nullptr. Valid until the next mutation. */
    Value *
    find(uint64_t key)
    {
        size_t idx = home(key);
        while (full_[idx]) {
            if (slots_[idx].key == key)
                return &slots_[idx].value;
            idx = (idx + 1) & mask_;
        }
        return nullptr;
    }

    const Value *
    find(uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(uint64_t key) const { return find(key) != nullptr; }

    /** Insert or overwrite. @return the stored value. */
    Value &
    insert(uint64_t key, Value value)
    {
        Value &slot = (*this)[key];
        slot = std::move(value);
        return slot;
    }

    /** Value for @p key, default-constructed on first touch. */
    Value &
    operator[](uint64_t key)
    {
        if (Value *existing = find(key))
            return *existing;
        if ((size_ + 1) * 4 > capacity() * 3) // max load 3/4
            rehash(capacity() * 2);
        size_t idx = home(key);
        while (full_[idx])
            idx = (idx + 1) & mask_;
        full_[idx] = true;
        slots_[idx].key = key;
        slots_[idx].value = Value{};
        ++size_;
        return slots_[idx].value;
    }

    /** Remove @p key. @return true when it was present. */
    bool
    erase(uint64_t key)
    {
        size_t idx = home(key);
        while (full_[idx]) {
            if (slots_[idx].key == key) {
                shiftOut(idx);
                --size_;
                return true;
            }
            idx = (idx + 1) & mask_;
        }
        return false;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Drop every entry; capacity is retained. */
    void
    clear()
    {
        full_.assign(full_.size(), false);
        for (Slot &slot : slots_)
            slot.value = Value{};
        size_ = 0;
    }

    /** Size the table for @p entries without rehashing later. */
    void
    reserve(size_t entries)
    {
        size_t want = kMinCapacity;
        while (entries * 4 > want * 3)
            want *= 2;
        if (want > capacity())
            rehash(want);
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        Value value{};
    };

    static constexpr size_t kMinCapacity = 16;

    size_t capacity() const { return slots_.size(); }

    /** splitmix64 finalizer: line addresses have zero low bits. */
    size_t
    home(uint64_t key) const
    {
        return static_cast<size_t>(mix64(key)) & mask_;
    }

    void
    rehash(size_t new_capacity)
    {
        std::vector<Slot> old_slots = std::move(slots_);
        std::vector<char> old_full = std::move(full_);
        slots_.assign(new_capacity, Slot{});
        full_.assign(new_capacity, false);
        mask_ = new_capacity - 1;
        for (size_t i = 0; i < old_slots.size(); ++i) {
            if (!old_full[i])
                continue;
            size_t idx = home(old_slots[i].key);
            while (full_[idx])
                idx = (idx + 1) & mask_;
            full_[idx] = true;
            slots_[idx] = std::move(old_slots[i]);
        }
    }

    /**
     * Knuth backward-shift deletion (TAOCP 6.4, Algorithm R): walk
     * the probe chain after the vacated slot and pull back every
     * entry whose home position does not lie inside the gap, so
     * lookups never need tombstones.
     */
    void
    shiftOut(size_t gap)
    {
        size_t idx = gap;
        while (true) {
            idx = (idx + 1) & mask_;
            if (!full_[idx]) {
                full_[gap] = false;
                slots_[gap].value = Value{};
                return;
            }
            const size_t h = home(slots_[idx].key);
            // Move idx -> gap only if its home precedes the gap on
            // the cyclic probe path (the gap is not between home and
            // idx): distance(home -> idx) >= distance(gap -> idx).
            if (((idx - h) & mask_) >= ((idx - gap) & mask_)) {
                slots_[gap] = std::move(slots_[idx]);
                gap = idx;
            }
        }
    }

    std::vector<Slot> slots_;
    /** Occupancy, kept separate so probing touches dense bytes. */
    std::vector<char> full_;
    size_t mask_ = 0;
    size_t size_ = 0;
};

} // namespace secproc::util

#endif // SECPROC_UTIL_FLAT_MAP_HH
