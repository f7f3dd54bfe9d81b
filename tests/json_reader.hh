/**
 * @file
 * Test-only JSON reader.
 *
 * The library writes JSON (util::Json) but never reads it: CI parses
 * every emitted report in Python. Tests that round-trip a report or a
 * trace export parse it back with this recursive-descent reader.
 * Numbers parse as doubles; `\u` escapes are accepted for code points
 * below 0x80, the only ones the writer emits.
 */

#ifndef SECPROC_TESTS_JSON_READER_HH
#define SECPROC_TESTS_JSON_READER_HH

#include <cctype>
#include <exception>
#include <optional>
#include <string>

#include "util/json.hh"

namespace secproc::test
{

namespace detail
{

/** Recursive-descent parser; any error latches ok_ false. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    std::optional<util::Json>
    run()
    {
        const util::Json value = parseValue();
        skipSpace();
        if (!ok_ || pos_ != text_.size())
            return std::nullopt;
        return value;
    }

  private:
    const std::string &text_;
    size_t pos_ = 0;
    bool ok_ = true;
    int depth_ = 0;

    static constexpr int kMaxDepth = 128;

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    util::Json
    parseValue()
    {
        skipSpace();
        if (pos_ >= text_.size() || ++depth_ > kMaxDepth) {
            ok_ = false;
            return util::Json();
        }
        util::Json out;
        const char c = text_[pos_];
        if (c == '{')
            out = parseObject();
        else if (c == '[')
            out = parseArray();
        else if (c == '"')
            out = util::Json(parseString());
        else if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            out = parseNumber();
        else if (literal("true"))
            out = util::Json(true);
        else if (literal("false"))
            out = util::Json(false);
        else if (literal("null"))
            out = util::Json();
        else
            ok_ = false;
        --depth_;
        return out;
    }

    util::Json
    parseObject()
    {
        ++pos_; // '{'
        util::Json out = util::Json::object();
        if (consume('}'))
            return out;
        while (ok_) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                ok_ = false;
                return out;
            }
            const std::string key = parseString();
            if (!ok_ || !consume(':')) {
                ok_ = false;
                return out;
            }
            out.set(key, parseValue());
            if (consume('}'))
                return out;
            if (!consume(',')) {
                ok_ = false;
                return out;
            }
        }
        return out;
    }

    util::Json
    parseArray()
    {
        ++pos_; // '['
        util::Json out = util::Json::array();
        if (consume(']'))
            return out;
        while (ok_) {
            out.push(parseValue());
            if (consume(']'))
                return out;
            if (!consume(',')) {
                ok_ = false;
                return out;
            }
        }
        return out;
    }

    std::string
    parseString()
    {
        ++pos_; // '"'
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    ok_ = false;
                    return out;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        ok_ = false;
                        return out;
                    }
                }
                // The writer only emits \u for control characters;
                // wider code points round-trip as UTF-8 unescaped.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else {
                    ok_ = false;
                    return out;
                }
                break;
              }
              default:
                ok_ = false;
                return out;
            }
        }
        ok_ = false;
        return out;
    }

    util::Json
    parseNumber()
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        auto digits = [this] {
            const size_t before = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            return pos_ != before;
        };
        if (!digits()) {
            ok_ = false;
            return util::Json();
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits()) {
                ok_ = false;
                return util::Json();
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits()) {
                ok_ = false;
                return util::Json();
            }
        }
        try {
            return util::Json(
                std::stod(text_.substr(start, pos_ - start)));
        } catch (const std::exception &) {
            ok_ = false; // out-of-double-range literal
            return util::Json();
        }
    }
};

} // namespace detail

/** Parse a complete document; nullopt on malformed input. */
inline std::optional<util::Json>
parseJson(const std::string &text)
{
    return detail::JsonParser(text).run();
}

} // namespace secproc::test

#endif // SECPROC_TESTS_JSON_READER_HH
