#include "support/json.hh"

#include <cmath>
#include <cstdio>

#include "support/logging.hh"

namespace gpsched
{

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(os), indent_(indent)
{
    GPSCHED_ASSERT(indent >= 0, "negative JSON indent");
}

void
JsonWriter::beginValue()
{
    GPSCHED_ASSERT(!done_, "write past the end of a JSON document");
    if (stack_.empty())
        return;
    Level &level = stack_.back();
    if (level.count > 0)
        os_ << ",";
    os_ << "\n"
        << std::string(static_cast<std::size_t>(indent_) *
                           stack_.size(),
                       ' ');
    ++level.count;
}

void
JsonWriter::writeKey(const std::string &key)
{
    GPSCHED_ASSERT(!stack_.empty() && stack_.back().isObject,
                   "JSON key '", key, "' outside an object");
    beginValue();
    os_ << quote(key) << ": ";
}

JsonWriter &
JsonWriter::beginObject()
{
    GPSCHED_ASSERT(stack_.empty() || !stack_.back().isObject,
                   "object element inside an object needs a key");
    beginValue();
    os_ << "{";
    stack_.push_back(Level{true, 0});
    return *this;
}

JsonWriter &
JsonWriter::beginObject(const std::string &key)
{
    writeKey(key);
    os_ << "{";
    stack_.push_back(Level{true, 0});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    GPSCHED_ASSERT(!stack_.empty() && stack_.back().isObject,
                   "endObject without a matching beginObject");
    bool empty = stack_.back().count == 0;
    stack_.pop_back();
    if (!empty) {
        os_ << "\n"
            << std::string(static_cast<std::size_t>(indent_) *
                               stack_.size(),
                           ' ');
    }
    os_ << "}";
    if (stack_.empty()) {
        os_ << "\n";
        done_ = true;
    }
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    GPSCHED_ASSERT(stack_.empty() || !stack_.back().isObject,
                   "array element inside an object needs a key");
    beginValue();
    os_ << "[";
    stack_.push_back(Level{false, 0});
    return *this;
}

JsonWriter &
JsonWriter::beginArray(const std::string &key)
{
    writeKey(key);
    os_ << "[";
    stack_.push_back(Level{false, 0});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    GPSCHED_ASSERT(!stack_.empty() && !stack_.back().isObject,
                   "endArray without a matching beginArray");
    bool empty = stack_.back().count == 0;
    stack_.pop_back();
    if (!empty) {
        os_ << "\n"
            << std::string(static_cast<std::size_t>(indent_) *
                               stack_.size(),
                           ' ');
    }
    os_ << "]";
    if (stack_.empty()) {
        os_ << "\n";
        done_ = true;
    }
    return *this;
}

JsonWriter &
JsonWriter::member(const std::string &key, const std::string &value)
{
    writeKey(key);
    os_ << quote(value);
    return *this;
}

JsonWriter &
JsonWriter::member(const std::string &key, const char *value)
{
    return member(key, std::string(value));
}

JsonWriter &
JsonWriter::member(const std::string &key, double value)
{
    writeKey(key);
    os_ << number(value);
    return *this;
}

JsonWriter &
JsonWriter::member(const std::string &key, std::int64_t value)
{
    writeKey(key);
    os_ << value;
    return *this;
}

JsonWriter &
JsonWriter::member(const std::string &key, std::uint64_t value)
{
    writeKey(key);
    os_ << value;
    return *this;
}

JsonWriter &
JsonWriter::member(const std::string &key, int value)
{
    return member(key, static_cast<std::int64_t>(value));
}

JsonWriter &
JsonWriter::member(const std::string &key, bool value)
{
    writeKey(key);
    os_ << (value ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::element(const std::string &value)
{
    GPSCHED_ASSERT(!stack_.empty() && !stack_.back().isObject,
                   "JSON element outside an array");
    beginValue();
    os_ << quote(value);
    return *this;
}

JsonWriter &
JsonWriter::element(double value)
{
    GPSCHED_ASSERT(!stack_.empty() && !stack_.back().isObject,
                   "JSON element outside an array");
    beginValue();
    os_ << number(value);
    return *this;
}

JsonWriter &
JsonWriter::element(std::int64_t value)
{
    GPSCHED_ASSERT(!stack_.empty() && !stack_.back().isObject,
                   "JSON element outside an array");
    beginValue();
    os_ << value;
    return *this;
}

JsonWriter &
JsonWriter::element(int value)
{
    return element(static_cast<std::int64_t>(value));
}

std::string
JsonWriter::quote(const std::string &text)
{
    std::string out = "\"";
    for (unsigned char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
    return out;
}

std::string
JsonWriter::number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    // %.17g round-trips every IEEE-754 double.
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace gpsched
