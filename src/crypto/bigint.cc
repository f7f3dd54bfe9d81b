/**
 * @file
 * BigInt implementation.
 *
 * Multiplication is the schoolbook product over 64-bit limbs;
 * division is Knuth Algorithm D (TAOCP vol. 2, 4.3.1) over the same
 * limbs; modular exponentiation for odd moduli runs a 4-bit window
 * over one CIOS Montgomery kernel on raw k-limb arrays (montMul<K>:
 * constant widths up to kMaxConstantWidth, a run-time width above),
 * and key generation's Miller-Rabin rounds run on the same kernel
 * without leaving the Montgomery domain. The pre-optimization
 * division and exponentiation survive as the *Schoolbook reference
 * methods used by the differential tests and the rsa_throughput
 * bench's "schoolbook" engine.
 */

#include "crypto/bigint.hh"

#include <algorithm>
#include <array>
#include <iterator>
#include <type_traits>

#include "util/logging.hh"

namespace secproc::crypto
{

namespace
{

using Limbs = std::vector<uint64_t>;

/** Drop trailing zero limbs (the normalized representation). */
void
trimLimbs(Limbs &v)
{
    while (!v.empty() && v.back() == 0)
        v.pop_back();
}

/** Compare limb vectors as integers. */
int
compareLimbs(const Limbs &a, const Limbs &b)
{
    if (a.size() != b.size())
        return a.size() < b.size() ? -1 : 1;
    for (size_t i = a.size(); i-- > 0;) {
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    }
    return 0;
}

/** In place: a -= b. Requires a >= b. */
void
subInPlace(Limbs &a, const Limbs &b)
{
    uint64_t borrow = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        const uint64_t bi = i < b.size() ? b[i] : 0;
        const uint64_t before = a[i];
        const uint64_t mid = before - bi;
        const uint64_t after = mid - borrow;
        borrow = (before < bi) || (mid < borrow) ? 1 : 0;
        a[i] = after;
    }
    panic_if(borrow != 0, "BigInt subtraction underflow");
    trimLimbs(a);
}

/** In place: a = (a << 1) | carry_in_bit. */
void
shl1InPlace(Limbs &a, bool carry_in)
{
    uint64_t carry = carry_in ? 1 : 0;
    for (auto &limb : a) {
        const uint64_t next_carry = limb >> 63;
        limb = (limb << 1) | carry;
        carry = next_carry;
    }
    if (carry)
        a.push_back(1);
}

/** Schoolbook product; inputs need not be normalized. */
Limbs
mulLimbs(const Limbs &a, const Limbs &b)
{
    if (a.empty() || b.empty())
        return {};
    Limbs out(a.size() + b.size(), 0);
    for (size_t i = 0; i < a.size(); ++i) {
        uint64_t carry = 0;
        for (size_t j = 0; j < b.size(); ++j) {
            const __uint128_t prod =
                static_cast<__uint128_t>(a[i]) * b[j] + out[i + j] +
                carry;
            out[i + j] = static_cast<uint64_t>(prod);
            carry = static_cast<uint64_t>(prod >> 64);
        }
        out[i + b.size()] += carry;
    }
    trimLimbs(out);
    return out;
}

/** v << shift (shift < 64) into a vector of exactly @p len limbs. */
Limbs
shiftLeftBits(const Limbs &v, unsigned shift, size_t len)
{
    Limbs out(len, 0);
    for (size_t i = 0; i < v.size(); ++i) {
        out[i] |= v[i] << shift;
        if (shift != 0 && i + 1 < len)
            out[i + 1] = v[i] >> (64 - shift);
    }
    return out;
}

/** Multiplicative inverse of odd @p x modulo 2^64 (Newton lifting). */
uint64_t
inverse64(uint64_t x)
{
    uint64_t inv = x; // correct modulo 2^3 for odd x
    for (int i = 0; i < 5; ++i)
        inv *= 2 - x * inv; // doubles the correct low bits
    return inv;
}

/**
 * The odd primes up to 113, in three runs whose products fit in 64
 * bits: trial division takes one residue per run instead of one
 * BigInt division per prime.
 */
constexpr uint64_t kOddSmallPrimes[] = {
    3,  5,  7,  11, 13, 17, 19,  23,  29,  31,  37,  41,  43,  47, 53,
    59, 61, 67, 71, 73, 79, 83,  89,  97,  101,
    103, 107, 109, 113,
};
constexpr size_t kPrimeRunEnds[] = {15, 25, 29};

/** Each run's product, kept 128 bits wide for the check below. */
constexpr auto kPrimeRunProducts = [] {
    std::array<__uint128_t, std::size(kPrimeRunEnds)> products{};
    size_t begin = 0;
    for (size_t run = 0; run < products.size(); ++run) {
        products[run] = 1;
        for (size_t i = begin; i < kPrimeRunEnds[run]; ++i)
            products[run] *= kOddSmallPrimes[i];
        begin = kPrimeRunEnds[run];
    }
    return products;
}();
static_assert(std::all_of(kPrimeRunProducts.begin(),
                          kPrimeRunProducts.end(),
                          [](__uint128_t p) { return p >> 64 == 0; }),
              "each prime run's product must fit in a limb");

/** Whether an odd prime <= 113 divides the value of @p limbs. */
bool
hasSmallOddFactor(const Limbs &limbs)
{
    size_t begin = 0;
    for (size_t run = 0; run < std::size(kPrimeRunEnds); ++run) {
        const auto product =
            static_cast<uint64_t>(kPrimeRunProducts[run]);
        uint64_t rem = 0; // the value mod product, top limb first
        for (size_t i = limbs.size(); i-- > 0;) {
            rem = static_cast<uint64_t>(
                ((static_cast<__uint128_t>(rem) << 64) | limbs[i]) %
                product);
        }
        for (size_t i = begin; i < kPrimeRunEnds[run]; ++i) {
            if (rem % kOddSmallPrimes[i] == 0)
                return true;
        }
        begin = kPrimeRunEnds[run];
    }
    return false;
}

} // namespace

BigInt::BigInt(uint64_t v)
{
    if (v != 0)
        limbs_.push_back(v);
}

void
BigInt::trim()
{
    trimLimbs(limbs_);
}

BigInt
BigInt::fromHex(const std::string &hex)
{
    BigInt out;
    for (char c : hex) {
        uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<uint64_t>(c - 'A' + 10);
        else
            fatal("invalid hex digit '", c, "' in BigInt literal");
        out = (out << 4) + BigInt(digit);
    }
    return out;
}

BigInt
BigInt::fromBytes(const uint8_t *data, size_t len)
{
    // data[len - 1 - i] is byte i of the value: limb i / 8.
    BigInt out;
    out.limbs_.assign((len + 7) / 8, 0);
    for (size_t i = 0; i < len; ++i) {
        out.limbs_[i / 8] |= uint64_t{data[len - 1 - i]}
                             << (8 * (i % 8));
    }
    out.trim();
    return out;
}

BigInt
BigInt::randomBits(unsigned bits, util::Rng &rng)
{
    fatal_if(bits == 0, "randomBits needs at least one bit");
    BigInt out;
    out.limbs_.resize((bits + 63) / 64);
    for (auto &limb : out.limbs_)
        limb = rng.next64();
    const unsigned top_bits = ((bits - 1) % 64) + 1;
    uint64_t &top = out.limbs_.back();
    if (top_bits < 64)
        top &= (uint64_t{1} << top_bits) - 1;
    top |= uint64_t{1} << (top_bits - 1); // force exact bit length
    out.trim();
    return out;
}

BigInt
BigInt::randomBelow(const BigInt &bound, util::Rng &rng)
{
    panic_if(bound.isZero(), "randomBelow(0) is empty");
    const unsigned bits = bound.bitLength();
    // Rejection sampling; expected < 2 iterations.
    while (true) {
        BigInt candidate;
        candidate.limbs_.resize((bits + 63) / 64);
        for (auto &limb : candidate.limbs_)
            limb = rng.next64();
        const unsigned top_bits = ((bits - 1) % 64) + 1;
        if (top_bits < 64)
            candidate.limbs_.back() &= (uint64_t{1} << top_bits) - 1;
        candidate.trim();
        if (candidate < bound)
            return candidate;
    }
}

unsigned
BigInt::bitLength() const
{
    if (limbs_.empty())
        return 0;
    unsigned high_bits = 64;
    uint64_t top = limbs_.back();
    while ((top & (uint64_t{1} << 63)) == 0) {
        top <<= 1;
        --high_bits;
    }
    return static_cast<unsigned>(64 * (limbs_.size() - 1)) + high_bits;
}

bool
BigInt::bit(unsigned i) const
{
    const size_t limb = i / 64;
    if (limb >= limbs_.size())
        return false;
    return (limbs_[limb] >> (i % 64)) & 1;
}

std::vector<uint8_t>
BigInt::toBytes(size_t min_len) const
{
    std::vector<uint8_t> out;
    const unsigned bytes = (bitLength() + 7) / 8;
    out.resize(std::max<size_t>(bytes, min_len), 0);
    for (unsigned i = 0; i < bytes; ++i) {
        const uint64_t limb = limbs_[i / 8];
        out[out.size() - 1 - i] =
            static_cast<uint8_t>(limb >> (8 * (i % 8)));
    }
    return out;
}

std::string
BigInt::toHex() const
{
    if (isZero())
        return "0";
    static const char digits[] = "0123456789abcdef";
    std::string out;
    bool leading = true;
    for (size_t i = limbs_.size(); i-- > 0;) {
        for (int shift = 60; shift >= 0; shift -= 4) {
            const auto nibble =
                static_cast<unsigned>((limbs_[i] >> shift) & 0xF);
            if (leading && nibble == 0)
                continue;
            leading = false;
            out.push_back(digits[nibble]);
        }
    }
    return out;
}

int
BigInt::compare(const BigInt &other) const
{
    return compareLimbs(limbs_, other.limbs_);
}

BigInt
BigInt::operator+(const BigInt &o) const
{
    BigInt out;
    const size_t n = std::max(limbs_.size(), o.limbs_.size());
    out.limbs_.resize(n, 0);
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t a = i < limbs_.size() ? limbs_[i] : 0;
        const uint64_t b = i < o.limbs_.size() ? o.limbs_[i] : 0;
        const uint64_t sum = a + b;
        const uint64_t total = sum + carry;
        carry = (sum < a) || (total < sum) ? 1 : 0;
        out.limbs_[i] = total;
    }
    if (carry)
        out.limbs_.push_back(1);
    return out;
}

BigInt
BigInt::operator-(const BigInt &o) const
{
    panic_if(*this < o, "BigInt subtraction underflow");
    BigInt out = *this;
    subInPlace(out.limbs_, o.limbs_);
    return out;
}

BigInt
BigInt::operator*(const BigInt &o) const
{
    if (isZero() || o.isZero())
        return BigInt();
    BigInt out;
    out.limbs_ = mulLimbs(limbs_, o.limbs_);
    return out;
}

BigInt
BigInt::operator<<(unsigned bits) const
{
    if (isZero() || bits == 0)
        return *this;
    const size_t limb_shift = bits / 64;
    const unsigned bit_shift = bits % 64;
    BigInt out;
    out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (size_t i = 0; i < limbs_.size(); ++i) {
        out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
        if (bit_shift != 0) {
            out.limbs_[i + limb_shift + 1] |=
                limbs_[i] >> (64 - bit_shift);
        }
    }
    out.trim();
    return out;
}

BigInt
BigInt::operator>>(unsigned bits) const
{
    const size_t limb_shift = bits / 64;
    const unsigned bit_shift = bits % 64;
    if (limb_shift >= limbs_.size())
        return BigInt();
    BigInt out;
    out.limbs_.assign(limbs_.size() - limb_shift, 0);
    for (size_t i = 0; i < out.limbs_.size(); ++i) {
        out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
        if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
            out.limbs_[i] |=
                limbs_[i + limb_shift + 1] << (64 - bit_shift);
        }
    }
    out.trim();
    return out;
}

std::pair<BigInt, BigInt>
BigInt::divmod(const BigInt &div) const
{
    panic_if(div.isZero(), "BigInt division by zero");
    std::pair<BigInt, BigInt> result;
    if (*this < div) {
        result.second = *this;
        return result;
    }

    // Single-limb divisor: one 128/64 division per limb.
    if (div.limbs_.size() == 1) {
        const uint64_t d = div.limbs_[0];
        Limbs quot(limbs_.size(), 0);
        uint64_t rem = 0;
        for (size_t i = limbs_.size(); i-- > 0;) {
            const __uint128_t cur =
                (static_cast<__uint128_t>(rem) << 64) | limbs_[i];
            quot[i] = static_cast<uint64_t>(cur / d);
            rem = static_cast<uint64_t>(cur % d);
        }
        result.first.limbs_ = std::move(quot);
        result.first.trim();
        result.second = BigInt(rem);
        return result;
    }

    // Knuth Algorithm D. Normalize so the divisor's top bit is set:
    // the two-limb trial quotient is then off by at most 2, and the
    // add-back correction below runs with probability ~2/2^64.
    const size_t n = div.limbs_.size();
    const size_t m = limbs_.size() - n;
    const unsigned shift = static_cast<unsigned>(
        __builtin_clzll(div.limbs_.back()));
    const Limbs v = shiftLeftBits(div.limbs_, shift, n);
    Limbs u = shiftLeftBits(limbs_, shift, limbs_.size() + 1);

    Limbs quot(m + 1, 0);
    for (size_t j = m + 1; j-- > 0;) {
        // Trial quotient from the top two limbs of u / top of v.
        const __uint128_t num =
            (static_cast<__uint128_t>(u[j + n]) << 64) | u[j + n - 1];
        __uint128_t qhat = num / v[n - 1];
        __uint128_t rhat = num % v[n - 1];
        while (qhat > UINT64_MAX ||
               static_cast<__uint128_t>(static_cast<uint64_t>(qhat)) *
                       v[n - 2] >
                   ((rhat << 64) | u[j + n - 2])) {
            --qhat;
            rhat += v[n - 1];
            if (rhat > UINT64_MAX)
                break;
        }
        uint64_t q = static_cast<uint64_t>(qhat);

        // u[j .. j+n] -= q * v. The subtraction is two's-complement
        // on purpose: when q is one too large the window wraps and
        // the add-back below restores it — no underflow panic is
        // involved (and none of its machinery runs) on this path.
        uint64_t mul_carry = 0;
        uint64_t borrow = 0;
        for (size_t i = 0; i < n; ++i) {
            const __uint128_t prod =
                static_cast<__uint128_t>(q) * v[i] + mul_carry;
            mul_carry = static_cast<uint64_t>(prod >> 64);
            const uint64_t sub = static_cast<uint64_t>(prod);
            const uint64_t before = u[j + i];
            const uint64_t mid = before - sub;
            const uint64_t after = mid - borrow;
            borrow = (before < sub) || (mid < borrow) ? 1 : 0;
            u[j + i] = after;
        }
        const uint64_t top_before = u[j + n];
        const uint64_t top_mid = top_before - mul_carry;
        const uint64_t top_after = top_mid - borrow;
        const bool overshot =
            (top_before < mul_carry) || (top_mid < borrow);
        u[j + n] = top_after;

        if (overshot) {
            // Quotient correction: q was one too large; add v back.
            --q;
            uint64_t carry = 0;
            for (size_t i = 0; i < n; ++i) {
                const __uint128_t sum =
                    static_cast<__uint128_t>(u[j + i]) + v[i] + carry;
                u[j + i] = static_cast<uint64_t>(sum);
                carry = static_cast<uint64_t>(sum >> 64);
            }
            u[j + n] += carry; // wraps, cancelling the borrowed bit
        }
        quot[j] = q;
    }

    result.first.limbs_ = std::move(quot);
    result.first.trim();
    u.resize(n);
    BigInt rem;
    rem.limbs_ = std::move(u);
    rem.trim();
    result.second = rem >> shift;
    return result;
}

std::pair<BigInt, BigInt>
BigInt::divmodSchoolbook(const BigInt &div) const
{
    panic_if(div.isZero(), "BigInt division by zero");
    std::pair<BigInt, BigInt> result;
    if (*this < div) {
        result.second = *this;
        return result;
    }

    const unsigned total_bits = bitLength();
    Limbs rem;
    Limbs quot((total_bits + 63) / 64, 0);
    for (unsigned i = total_bits; i-- > 0;) {
        shl1InPlace(rem, bit(i));
        if (compareLimbs(rem, div.limbs_) >= 0) {
            subInPlace(rem, div.limbs_);
            quot[i / 64] |= uint64_t{1} << (i % 64);
        }
    }
    result.first.limbs_ = std::move(quot);
    result.first.trim();
    result.second.limbs_ = std::move(rem);
    result.second.trim();
    return result;
}

// --------------------------------------------------------- MontgomeryCtx

namespace
{

/** What the kernel reads of a MontgomeryCtx. */
struct MontModulus
{
    const uint64_t *n; ///< k limbs, little-endian
    uint64_t n0inv;    ///< -n^{-1} mod 2^64
    size_t k;          ///< limb count of n
};

/**
 * The one Montgomery kernel: out = a * b * R^{-1} mod n over k-limb
 * arrays by CIOS, for a < R and b < n, so the result is canonical
 * (< n). out may alias a or b; it is written only after the last
 * operand read. K > 0 fixes the width at compile time, so the loops
 * unroll and the accumulator can live in registers; K == 0 runs the
 * same body at the run-time width m.k on the (k + 2)-limb
 * accumulator @p wide_t.
 */
template <size_t K>
inline void
montMul(uint64_t *out, const uint64_t *a, const uint64_t *b,
        const MontModulus &m, uint64_t *wide_t)
{
    const size_t k = K != 0 ? K : m.k;
    uint64_t fixed_t[K + 2] = {};
    uint64_t *const t = K != 0 ? fixed_t : wide_t;
    if (K == 0)
        std::fill_n(wide_t, k + 2, uint64_t{0});

    // Interleave the multiply pass with the reduction pass so the
    // accumulator never exceeds k + 2 limbs.
    for (size_t i = 0; i < k; ++i) {
        uint64_t carry = 0;
        for (size_t j = 0; j < k; ++j) {
            const __uint128_t sum =
                static_cast<__uint128_t>(a[i]) * b[j] + t[j] + carry;
            t[j] = static_cast<uint64_t>(sum);
            carry = static_cast<uint64_t>(sum >> 64);
        }
        __uint128_t top = static_cast<__uint128_t>(t[k]) + carry;
        t[k] = static_cast<uint64_t>(top);
        t[k + 1] = static_cast<uint64_t>(top >> 64);

        const uint64_t mfactor = t[0] * m.n0inv;
        __uint128_t sum =
            static_cast<__uint128_t>(mfactor) * m.n[0] + t[0];
        carry = static_cast<uint64_t>(sum >> 64);
        for (size_t j = 1; j < k; ++j) {
            sum = static_cast<__uint128_t>(mfactor) * m.n[j] + t[j] +
                  carry;
            t[j - 1] = static_cast<uint64_t>(sum);
            carry = static_cast<uint64_t>(sum >> 64);
        }
        top = static_cast<__uint128_t>(t[k]) + carry;
        t[k - 1] = static_cast<uint64_t>(top);
        t[k] = t[k + 1] + static_cast<uint64_t>(top >> 64);
    }

    // t[0 .. k] < 2n: one conditional subtract of n makes it < n.
    uint64_t borrow = 0;
    for (size_t j = 0; j < k; ++j) {
        const uint64_t mid = t[j] - m.n[j];
        const uint64_t next_borrow = (t[j] < m.n[j]) || (mid < borrow);
        out[j] = mid - borrow;
        borrow = next_borrow;
    }
    if (t[k] == 0 && borrow != 0) // t < n: keep t
        std::copy_n(t, k, out);
}

/**
 * Widths up to this many limbs compile as constants. Measured on
 * x86-64 with g++ 12 (best of six, full-length exponents), a constant
 * width ran modExp 1.55-2.7x faster than the run-time loop at 1-4
 * limbs (the primes of keys up to 512 bits), 1.2-1.6x at 5-8 (the
 * 512-bit modulus, the primes of 1024-bit keys) and no faster at 16.
 */
constexpr size_t kMaxConstantWidth = 8;

/**
 * fn(std::integral_constant<size_t, K>{}) with the kernel width for
 * a k-limb modulus: K = k up to kMaxConstantWidth, K = 0 (run-time
 * width) above it.
 */
template <size_t K = kMaxConstantWidth, typename Fn>
decltype(auto)
withKernelWidth(size_t k, const Fn &fn)
{
    if constexpr (K == 0) {
        return fn(std::integral_constant<size_t, 0>{});
    } else {
        if (k == K)
            return fn(std::integral_constant<size_t, K>{});
        return withKernelWidth<K - 1>(k, fn);
    }
}

/** @p x zero-padded into the k-limb array @p dst. */
void
loadLimbs(uint64_t *dst, const Limbs &x, size_t k)
{
    panic_if(x.size() > k, "Montgomery operand wider than its modulus");
    std::fill(std::copy(x.begin(), x.end(), dst), dst + k, uint64_t{0});
}

/**
 * Left-to-right exponentiation, shared by the Montgomery and
 * even-modulus paths: plain square-and-multiply for short exponents,
 * where filling the window table would dominate (RSA's e = 65537
 * public exponent is the important case), 4-bit fixed window
 * otherwise. Elem is the element storage (a BigInt, or a pointer to
 * k limbs). On entry @p table[1] holds the base in mul's domain and
 * table[2..15] are free storage (table[0] is never read: a zero
 * window skips its multiply and the top window is non-zero); on
 * return @p acc holds base^exp. mul(out, a, b) may overwrite a or b,
 * copy(dst, src) assigns. @p exp must be non-zero.
 */
template <typename Elem, typename MulFn, typename CopyFn>
void
expLeftToRight(const BigInt &exp, std::array<Elem, 16> &table,
               Elem &acc, const MulFn &mul, const CopyFn &copy)
{
    const unsigned bits = exp.bitLength();
    if (bits <= 32) {
        copy(acc, table[1]); // consumes the top bit
        for (unsigned i = bits - 1; i-- > 0;) {
            mul(acc, acc, acc);
            if (exp.bit(i))
                mul(acc, acc, table[1]);
        }
        return;
    }

    // table[i] = base^i in mul's domain.
    for (size_t i = 2; i < table.size(); ++i)
        mul(table[i], table[i - 1], table[1]);

    const auto window = [&exp](unsigned w) {
        unsigned value = 0;
        for (unsigned b = 0; b < 4; ++b)
            value |= static_cast<unsigned>(exp.bit(4 * w + b)) << b;
        return value;
    };

    unsigned w = (bits - 1) / 4;
    copy(acc, table[window(w)]); // top window is non-zero
    while (w-- > 0) {
        for (int s = 0; s < 4; ++s)
            mul(acc, acc, acc);
        const unsigned value = window(w);
        if (value != 0)
            mul(acc, acc, table[value]);
    }
}

/** Scratch limbs montPow needs at width k: the run-time kernel's
 *  accumulator, then table[1..15]. */
constexpr size_t
powScratchLimbs(size_t k)
{
    return (k + 2) + 15 * k;
}

/**
 * x = x^exp within the Montgomery domain: @p x is k limbs, < n;
 * @p exp is non-zero; @p scratch holds powScratchLimbs(k) limbs.
 */
template <size_t K>
void
montPow(uint64_t *x, const BigInt &exp, const MontModulus &m,
        uint64_t *scratch)
{
    const size_t k = K != 0 ? K : m.k;
    std::array<uint64_t *, 16> table{};
    for (size_t i = 1; i < table.size(); ++i)
        table[i] = scratch + (k + 2) + (i - 1) * k;
    std::copy_n(x, k, table[1]);
    expLeftToRight(
        exp, table, x,
        [&m, scratch](uint64_t *out, const uint64_t *a,
                      const uint64_t *b) {
            montMul<K>(out, a, b, m, scratch);
        },
        [k](uint64_t *dst, const uint64_t *src) {
            std::copy_n(src, k, dst);
        });
}

} // namespace

MontgomeryCtx::MontgomeryCtx(const BigInt &modulus) : n_(modulus)
{
    panic_if(!modulus.isOdd() || modulus <= BigInt(1),
             "MontgomeryCtx modulus must be odd and > 1");
    k_ = n_.limbs_.size();
    n0inv_ = ~inverse64(n_.limbs_[0]) + 1; // -n^{-1} mod 2^64
    const auto r_bits = static_cast<unsigned>(64 * k_);
    rr_ = ((BigInt(1) << (2 * r_bits)) % n_).limbs_;
    rr_.resize(k_);
    one_ = ((BigInt(1) << r_bits) % n_).limbs_;
    one_.resize(k_);
}

BigInt
MontgomeryCtx::product(const Limbs &a, const Limbs &b) const
{
    // One scratch buffer: a (overwritten by the product), b, and the
    // run-time kernel's accumulator.
    Limbs buf(3 * k_ + 2);
    uint64_t *const x = buf.data();
    loadLimbs(x, a, k_);
    loadLimbs(x + k_, b, k_);
    const MontModulus m{n_.limbs_.data(), n0inv_, k_};
    withKernelWidth(k_, [&](auto width) {
        montMul<decltype(width)::value>(x, x, x + k_, m, x + 2 * k_);
    });
    BigInt out;
    out.limbs_.assign(x, x + k_);
    out.trim();
    return out;
}

BigInt
MontgomeryCtx::toMont(const BigInt &x) const
{
    const BigInt reduced = x >= n_ ? x % n_ : x;
    return product(reduced.limbs_, rr_);
}

BigInt
MontgomeryCtx::fromMont(const BigInt &x) const
{
    return product(x.limbs_, Limbs{1});
}

BigInt
MontgomeryCtx::mul(const BigInt &a, const BigInt &b) const
{
    return product(a.limbs_, b.limbs_);
}

BigInt
MontgomeryCtx::modExp(const BigInt &base, const BigInt &exp) const
{
    if (exp.isZero())
        return BigInt(1); // n > 1, so 1 mod n == 1
    const BigInt reduced = base >= n_ ? base % n_ : base;

    // One scratch buffer: x, then montPow's scratch.
    Limbs buf(k_ + powScratchLimbs(k_));
    uint64_t *const x = buf.data();
    uint64_t *const scratch = x + k_;
    loadLimbs(x, reduced.limbs_, k_);
    const MontModulus m{n_.limbs_.data(), n0inv_, k_};
    withKernelWidth(k_, [&](auto width) {
        constexpr size_t K = decltype(width)::value;
        montMul<K>(x, x, rr_.data(), m, scratch); // into the domain
        montPow<K>(x, exp, m, scratch);
        uint64_t *const unit = scratch + k_ + 2; // a spent table slot
        std::fill_n(unit, k_, uint64_t{0});
        unit[0] = 1;
        montMul<K>(x, x, unit, m, scratch); // out of the domain
    });
    BigInt out;
    out.limbs_.assign(x, x + k_);
    out.trim();
    return out;
}

// ---------------------------------------------------------------- modExp

BigInt
BigInt::modExp(const BigInt &exp, const BigInt &m) const
{
    panic_if(m.isZero(), "modExp modulus must be non-zero");
    if (m == BigInt(1))
        return BigInt(); // everything is 0 mod 1
    if (m.isOdd())
        return MontgomeryCtx(m).modExp(*this, exp);

    // Even modulus (never hit by RSA): the same ladder with
    // division-based reduction.
    if (exp.isZero())
        return BigInt(1);
    std::array<BigInt, 16> table;
    table[1] = *this % m;
    BigInt acc;
    expLeftToRight(
        exp, table, acc,
        [&m](BigInt &out, const BigInt &a, const BigInt &b) {
            out = (a * b) % m;
        },
        [](BigInt &dst, const BigInt &src) { dst = src; });
    return acc;
}

BigInt
BigInt::modExpSchoolbook(const BigInt &exp, const BigInt &m) const
{
    panic_if(m.isZero(), "modExp modulus must be non-zero");
    BigInt base = divmodSchoolbook(m).second;
    BigInt result = BigInt(1).divmodSchoolbook(m).second; // m == 1
    const unsigned bits = exp.bitLength();
    for (unsigned i = bits; i-- > 0;) {
        result = (result * result).divmodSchoolbook(m).second;
        if (exp.bit(i))
            result = (result * base).divmodSchoolbook(m).second;
    }
    return result;
}

BigInt
BigInt::modInverse(const BigInt &m) const
{
    // Extended Euclid over non-negative values, tracking signs
    // explicitly: old_s may go "negative", represented as (mag, neg).
    panic_if(m.isZero(), "modInverse modulus must be non-zero");
    BigInt r0 = m;
    BigInt r1 = *this % m;
    BigInt s0(0), s1(1);
    bool s0_neg = false, s1_neg = false;

    while (!r1.isZero()) {
        const auto [q, r2] = r0.divmod(r1);
        // s2 = s0 - q * s1 with explicit sign arithmetic.
        const BigInt qs1 = q * s1;
        BigInt s2;
        bool s2_neg;
        if (s0_neg == s1_neg) {
            // Same sign: result sign depends on magnitudes.
            if (s0 >= qs1) {
                s2 = s0 - qs1;
                s2_neg = s0_neg;
            } else {
                s2 = qs1 - s0;
                s2_neg = !s0_neg;
            }
        } else {
            s2 = s0 + qs1;
            s2_neg = s0_neg;
        }
        r0 = r1;
        r1 = r2;
        s0 = s1;
        s0_neg = s1_neg;
        s1 = s2;
        s1_neg = s2_neg;
    }
    panic_if(r0 != BigInt(1), "modInverse: arguments not coprime");
    if (s0_neg)
        return m - (s0 % m);
    return s0 % m;
}

BigInt
BigInt::gcd(BigInt a, BigInt b)
{
    while (!b.isZero()) {
        BigInt r = a % b;
        a = std::move(b);
        b = std::move(r);
    }
    return a;
}

bool
BigInt::isProbablePrime(util::Rng &rng, int rounds) const
{
    fatal_if(rounds < 1,
             "isProbablePrime needs at least one witness round, got ",
             rounds);
    if (limbs_.size() == 1 &&
        (limbs_[0] == 2 || std::find(std::begin(kOddSmallPrimes),
                                     std::end(kOddSmallPrimes),
                                     limbs_[0]) !=
                               std::end(kOddSmallPrimes))) {
        return true;
    }
    // 0 and 1 are not prime (and 1 would make n-1 = 0 loop forever
    // in the d-extraction below); even numbers are composite.
    if (*this <= BigInt(1) || !isOdd() || hasSmallOddFactor(limbs_))
        return false;

    // Write n-1 = d * 2^r.
    const BigInt n_minus_1 = *this - BigInt(1);
    BigInt d = n_minus_1;
    unsigned r = 0;
    while (!d.isOdd()) {
        d = d >> 1;
        ++r;
    }

    // The candidate is odd and > 113 here, so the witness loop runs
    // entirely in the Montgomery domain. The map is a bijection onto
    // canonical residues, so x == 1 and x == n-1 are compares against
    // R mod n and (n-1)R mod n = n - (R mod n).
    const MontgomeryCtx ctx(*this);
    const size_t k = ctx.k_;
    Limbs minus_one = limbs_;
    subInPlace(minus_one, ctx.one_);
    minus_one.resize(k);
    const auto equals = [k](const uint64_t *x, const Limbs &y) {
        return std::equal(x, x + k, y.begin());
    };

    // One scratch buffer: the witness x, then montPow's scratch.
    Limbs buf(k + powScratchLimbs(k));
    uint64_t *const x = buf.data();
    uint64_t *const scratch = x + k;
    const MontModulus m{limbs_.data(), ctx.n0inv_, k};
    const BigInt n_minus_3 = *this - BigInt(3);
    return withKernelWidth(k, [&](auto width) {
        constexpr size_t K = decltype(width)::value;
        for (int round = 0; round < rounds; ++round) {
            const BigInt a = BigInt(2) + randomBelow(n_minus_3, rng);
            loadLimbs(x, a.limbs_, k);
            montMul<K>(x, x, ctx.rr_.data(), m, scratch);
            montPow<K>(x, d, m, scratch);
            if (equals(x, ctx.one_) || equals(x, minus_one))
                continue;
            bool witness = true;
            for (unsigned i = 1; i < r && witness; ++i) {
                montMul<K>(x, x, x, m, scratch);
                witness = !equals(x, minus_one);
            }
            if (witness)
                return false;
        }
        return true;
    });
}

BigInt
BigInt::randomPrime(unsigned bits, util::Rng &rng)
{
    fatal_if(bits < 8, "randomPrime needs >= 8 bits");
    // An odd candidate near 2^bits is prime with probability about
    // 2 / (bits ln 2), so the expected count is 0.35·bits and missing
    // 64·bits times in a row has probability about e^-185.
    const uint64_t max_candidates = uint64_t{64} * bits;
    for (uint64_t drawn = 0; drawn < max_candidates; ++drawn) {
        BigInt candidate = randomBits(bits, rng);
        if (!candidate.isOdd())
            candidate = candidate + BigInt(1);
        if (candidate.isProbablePrime(rng))
            return candidate;
    }
    fatal("no ", bits, "-bit prime in ", max_candidates,
          " candidates: the primality test rejects everything");
}

} // namespace secproc::crypto
