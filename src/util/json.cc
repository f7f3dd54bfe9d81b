/**
 * @file
 * JSON document model and writer.
 */

#include "util/json.hh"

#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace secproc::util
{

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::boolean() const
{
    panic_if(type_ != Type::Bool, "not a JSON bool");
    return bool_;
}

double
Json::number() const
{
    panic_if(type_ != Type::Number, "not a JSON number");
    return number_;
}

uint64_t
Json::asU64() const
{
    const double v = number();
    panic_if(v < 0 || std::floor(v) != v,
             "JSON number is not a non-negative integer: ", v);
    return static_cast<uint64_t>(v);
}

const std::string &
Json::str() const
{
    panic_if(type_ != Type::String, "not a JSON string");
    return string_;
}

size_t
Json::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    return 0;
}

const Json &
Json::operator[](size_t idx) const
{
    panic_if(type_ != Type::Array, "not a JSON array");
    panic_if(idx >= array_.size(), "JSON array index ", idx,
             " out of range (size ", array_.size(), ")");
    return array_[idx];
}

void
Json::push(Json v)
{
    panic_if(type_ != Type::Array && type_ != Type::Null,
             "push() on a non-array JSON value");
    type_ = Type::Array;
    array_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    panic_if(type_ != Type::Object && type_ != Type::Null,
             "set() on a non-object JSON value");
    type_ = Type::Object;
    for (auto &member : object_) {
        if (member.first == key) {
            member.second = std::move(v);
            return;
        }
    }
    object_.emplace_back(key, std::move(v));
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &member : object_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *member = find(key);
    panic_if(member == nullptr, "missing JSON key '", key, "'");
    return *member;
}

bool
Json::operator==(const Json &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return bool_ == other.bool_;
      case Type::Number: return number_ == other.number_;
      case Type::String: return string_ == other.string_;
      case Type::Array: return array_ == other.array_;
      case Type::Object: return object_ == other.object_;
    }
    return false;
}

namespace
{

void
escapeString(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
formatNumber(std::string &out, double v)
{
    // Integral values (every simulator counter) print exactly.
    if (std::floor(v) == v && std::abs(v) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        out += buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent < 0)
        return;
    out.push_back('\n');
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        formatNumber(out, number_);
        break;
      case Type::String:
        escapeString(out, string_);
        break;
      case Type::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        for (size_t i = 0; i < array_.size(); ++i) {
            if (i != 0)
                out.push_back(',');
            newlineIndent(out, indent, depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out.push_back(']');
        break;
      case Type::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out.push_back('{');
        for (size_t i = 0; i < object_.size(); ++i) {
            if (i != 0)
                out.push_back(',');
            newlineIndent(out, indent, depth + 1);
            escapeString(out, object_[i].first);
            out += indent < 0 ? ":" : ": ";
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out.push_back('}');
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

} // namespace secproc::util
