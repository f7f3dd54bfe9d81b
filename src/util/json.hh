/**
 * @file
 * Minimal JSON document model and writer.
 *
 * Backs the experiment subsystem's machine-readable results
 * (BENCH_<name>.json): reports are built as Json trees and dumped
 * with stable key order (objects preserve insertion order). Numbers
 * are stored as doubles; integral values up to 2^53 are exact and
 * are printed without a decimal point, which covers every counter
 * the simulator produces. The library never reads JSON back: CI
 * parses the emitted reports in Python, and the tests' round trips
 * use the reader in tests/json_reader.hh.
 */

#ifndef SECPROC_UTIL_JSON_HH
#define SECPROC_UTIL_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace secproc::util
{

/**
 * One JSON value: null, bool, number, string, array or object.
 */
class Json
{
  public:
    Json() = default;
    Json(bool v) : type_(Type::Bool), bool_(v) {}
    Json(double v) : type_(Type::Number), number_(v) {}
    Json(int v) : type_(Type::Number), number_(v) {}
    Json(int64_t v)
        : type_(Type::Number), number_(static_cast<double>(v))
    {}
    Json(uint64_t v)
        : type_(Type::Number), number_(static_cast<double>(v))
    {}
    Json(const char *v) : type_(Type::String), string_(v) {}
    Json(std::string v) : type_(Type::String), string_(std::move(v)) {}

    /** Empty aggregate constructors. @{ */
    static Json array();
    static Json object();
    /** @} */

    bool isNull() const { return type_ == Type::Null; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; panic() on type mismatch. @{ */
    bool boolean() const;
    double number() const;
    uint64_t asU64() const;
    const std::string &str() const;
    /** @} */

    /** Array/object element count; 0 for scalars. */
    size_t size() const;

    /** Array element access; panic() when out of range. */
    const Json &operator[](size_t idx) const;

    /** Append to an array (converts a Null value to an array). */
    void push(Json v);

    /**
     * Set an object key (converts a Null value to an object).
     * Overwrites in place; new keys keep insertion order.
     */
    void set(const std::string &key, Json v);

    /** @return the member for @p key, or nullptr. */
    const Json *find(const std::string &key) const;

    /** Object member access; panic() on missing keys. */
    const Json &at(const std::string &key) const;

    /**
     * Serialize. @p indent < 0 gives a compact single line;
     * otherwise pretty-print with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

    bool operator==(const Json &other) const;

  private:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;

    void dumpTo(std::string &out, int indent, int depth) const;
};

} // namespace secproc::util

#endif // SECPROC_UTIL_JSON_HH
