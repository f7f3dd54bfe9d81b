/**
 * @file
 * Arbitrary-precision unsigned integers sized for RSA key exchange.
 *
 * Implements exactly the operation set RSA needs: add/sub/mul,
 * divmod, modular exponentiation, modular inverse, gcd and
 * Miller-Rabin primality. Little-endian 64-bit limbs.
 *
 * The hot paths are tuned for RSA-sized operands (32 limbs at 2048
 * bits): multiplication is the schoolbook product, division is
 * limb-based Knuth Algorithm D, and modExp runs a 4-bit window over
 * one fixed-width CIOS Montgomery kernel for odd moduli (see
 * MontgomeryCtx), as do the Miller-Rabin witness rounds of key
 * generation. The pre-optimization division and binary
 * exponentiation are retained as *Schoolbook reference methods so
 * differential tests can prove the fast paths bit-identical.
 */

#ifndef SECPROC_CRYPTO_BIGINT_HH
#define SECPROC_CRYPTO_BIGINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/random.hh"

namespace secproc::crypto
{

class MontgomeryCtx;

/** Unsigned big integer. All operations are value-semantic. */
class BigInt
{
  public:
    /** Zero. */
    BigInt() = default;

    /** From a machine word. */
    BigInt(uint64_t v); // NOLINT: implicit by design for literals

    /** From a hex string without 0x prefix (most significant first). */
    static BigInt fromHex(const std::string &hex);

    /** From big-endian bytes. */
    static BigInt fromBytes(const uint8_t *data, size_t len);

    /** Uniform random value with exactly @p bits bits (MSB set). */
    static BigInt randomBits(unsigned bits, util::Rng &rng);

    /** Uniform random value in [0, bound). bound must be > 0. */
    static BigInt randomBelow(const BigInt &bound, util::Rng &rng);

    bool isZero() const { return limbs_.empty(); }
    bool isOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }

    /** Number of significant bits (0 for zero). */
    unsigned bitLength() const;

    /** Value of bit @p i (0 = LSB). */
    bool bit(unsigned i) const;

    /** Big-endian byte serialization, optionally left-padded. */
    std::vector<uint8_t> toBytes(size_t min_len = 0) const;

    /** Lower-case hex string, "0" for zero. */
    std::string toHex() const;

    // Comparisons.
    int compare(const BigInt &other) const;
    bool operator==(const BigInt &o) const { return compare(o) == 0; }
    bool operator!=(const BigInt &o) const { return compare(o) != 0; }
    bool operator<(const BigInt &o) const { return compare(o) < 0; }
    bool operator<=(const BigInt &o) const { return compare(o) <= 0; }
    bool operator>(const BigInt &o) const { return compare(o) > 0; }
    bool operator>=(const BigInt &o) const { return compare(o) >= 0; }

    // Arithmetic.
    BigInt operator+(const BigInt &o) const;
    BigInt operator-(const BigInt &o) const; ///< panics on underflow
    BigInt operator*(const BigInt &o) const; ///< schoolbook product
    BigInt operator<<(unsigned bits) const;
    BigInt operator>>(unsigned bits) const;

    /**
     * Quotient and remainder in one pass (Knuth Algorithm D);
     * panics if @p div is zero.
     * @return {quotient, remainder}.
     */
    std::pair<BigInt, BigInt> divmod(const BigInt &div) const;

    BigInt operator/(const BigInt &o) const { return divmod(o).first; }
    BigInt operator%(const BigInt &o) const { return divmod(o).second; }

    /**
     * (this ^ exp) mod m; panics if m is zero. Odd moduli > 1 run in
     * the Montgomery domain with a 4-bit window; even moduli fall
     * back to a windowed square-and-multiply with division-based
     * reduction. exp == 0 yields 1 mod m; m == 1 yields 0.
     */
    BigInt modExp(const BigInt &exp, const BigInt &m) const;

    /** Modular inverse; panics unless gcd(this, m) == 1. */
    BigInt modInverse(const BigInt &m) const;

    /** Greatest common divisor. */
    static BigInt gcd(BigInt a, BigInt b);

    /**
     * Miller-Rabin probabilistic primality test: trial division by
     * the primes up to 113, then @p rounds random witnesses (fatal
     * unless rounds >= 1). Each round draws one randomBelow value.
     */
    bool isProbablePrime(util::Rng &rng, int rounds = 24) const;

    /**
     * Random prime with exactly @p bits bits. Fatal after 64·bits
     * candidates, about 185 times the expected count at any size: a
     * primality test that never accepts fails instead of hanging.
     */
    static BigInt randomPrime(unsigned bits, util::Rng &rng);

    /**
     * Reference implementations preserving the pre-optimization
     * algorithms (bit-at-a-time restoring division, binary
     * square-and-multiply over operator*). They exist so the fast
     * paths can be differentially tested against them and so the
     * rsa_throughput bench can report an honest speedup; production
     * code should use divmod and modExp.
     * @{
     */
    std::pair<BigInt, BigInt>
    divmodSchoolbook(const BigInt &div) const;
    BigInt modExpSchoolbook(const BigInt &exp, const BigInt &m) const;
    /** @} */

  private:
    friend class MontgomeryCtx;

    /** Little-endian limbs; normalized (no trailing zero limbs). */
    std::vector<uint64_t> limbs_;

    void trim();
};

/**
 * Precomputed Montgomery-multiplication context for one odd modulus
 * n > 1 of k limbs: n' = -n^{-1} mod 2^64, R^2 mod n and R mod n for
 * R = 2^(64k), each as a k-limb array. Every product runs one CIOS
 * (coarsely integrated operand scanning) kernel over fixed-width limb
 * buffers: two limb-level passes, one conditional subtract, no
 * division. Widths up to 8 limbs (every prime of keys up to 1024
 * bits, and the 512-bit modulus) compile with constant loop bounds;
 * wider moduli run the same kernel at a run-time width. Each call
 * takes one BigInt in per operand and gives one out; modExp and the
 * Miller-Rabin rounds stay on limb buffers in between.
 *
 * RSA keys cache one of these per modulus (RsaPublicKey::montCtx())
 * so sign/verify/attest reuse the precomputation. A context is
 * immutable after construction and safe to share across threads.
 */
class MontgomeryCtx
{
  public:
    /** Panics unless @p modulus is odd and > 1. */
    explicit MontgomeryCtx(const BigInt &modulus);

    const BigInt &modulus() const { return n_; }

    /** x * R mod n (enters the Montgomery domain; x reduced first). */
    BigInt toMont(const BigInt &x) const;

    /** x * R^{-1} mod n (leaves the Montgomery domain); x < R. */
    BigInt fromMont(const BigInt &x) const;

    /**
     * Montgomery product a * b * R^{-1} mod n for a < R and b < n;
     * panics if an operand has more limbs than n. Operands in the
     * Montgomery domain give a domain result.
     */
    BigInt mul(const BigInt &a, const BigInt &b) const;

    /**
     * (base ^ exp) mod n over plain-domain values: 4-bit fixed
     * window, squarings and multiplies in the Montgomery domain.
     */
    BigInt modExp(const BigInt &base, const BigInt &exp) const;

  private:
    friend class BigInt; // isProbablePrime's witness rounds

    using Limbs = std::vector<uint64_t>;

    /** One kernel product of @p a and @p b (each at most k limbs). */
    BigInt product(const Limbs &a, const Limbs &b) const;

    BigInt n_;
    Limbs rr_;           ///< R^2 mod n, k limbs
    Limbs one_;          ///< R mod n (the Montgomery form of 1), k limbs
    uint64_t n0inv_ = 0; ///< -n^{-1} mod 2^64
    size_t k_ = 0;       ///< limb count of n
};

} // namespace secproc::crypto

#endif // SECPROC_CRYPTO_BIGINT_HH
