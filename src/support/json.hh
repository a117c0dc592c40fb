/**
 * @file
 * Minimal streaming JSON writer used by the gpsched CLI and the
 * bench drivers' machine-readable reports. Handles nesting, comma
 * placement, string escaping and round-trip-exact doubles; no
 * external dependency. Misuse (a value without a key inside an
 * object, unbalanced end calls) panics — report emitters are code we
 * control, so structural errors are gpsched bugs.
 */

#ifndef GPSCHED_SUPPORT_JSON_HH
#define GPSCHED_SUPPORT_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace gpsched
{

/** Streaming writer producing pretty-printed JSON. */
class JsonWriter
{
  public:
    /** Writes to @p os with @p indent spaces per nesting level. */
    explicit JsonWriter(std::ostream &os, int indent = 2);

    /** Opens an object; at top level or as an array element. */
    JsonWriter &beginObject();

    /** Opens an object as @p key's value (inside an object). */
    JsonWriter &beginObject(const std::string &key);

    JsonWriter &endObject();

    /** Opens an array; at top level or as an array element. */
    JsonWriter &beginArray();

    /** Opens an array as @p key's value (inside an object). */
    JsonWriter &beginArray(const std::string &key);

    JsonWriter &endArray();

    /** Writes one key/value member of the current object. */
    JsonWriter &member(const std::string &key, const std::string &value);
    JsonWriter &member(const std::string &key, const char *value);
    JsonWriter &member(const std::string &key, double value);
    JsonWriter &member(const std::string &key, std::int64_t value);
    JsonWriter &member(const std::string &key, std::uint64_t value);
    JsonWriter &member(const std::string &key, int value);
    JsonWriter &member(const std::string &key, bool value);

    /** Writes one element of the current array. */
    JsonWriter &element(const std::string &value);
    JsonWriter &element(double value);
    JsonWriter &element(std::int64_t value);
    JsonWriter &element(int value);

    /** JSON string literal (quoted, escaped) for @p text. */
    static std::string quote(const std::string &text);

    /** Round-trip-exact rendering; nan/inf render as null. */
    static std::string number(double value);

  private:
    struct Level
    {
        bool isObject = false;
        int count = 0;
    };

    void beginValue(); ///< comma/newline/indent before a value
    void writeKey(const std::string &key);

    std::ostream &os_;
    int indent_;
    std::vector<Level> stack_;
    bool done_ = false;
};

} // namespace gpsched

#endif // GPSCHED_SUPPORT_JSON_HH
