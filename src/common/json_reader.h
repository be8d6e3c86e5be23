/**
 * @file
 * Minimal JSON parser, the read-side counterpart of JsonWriter. Parses
 * the documents this repo itself writes (persistent alone-run cache
 * files, serialized workload results) into an immutable value tree.
 * Object members preserve insertion order, so a document round-tripped
 * through JsonWriter compares field-for-field in the original order.
 */

#ifndef DSTRANGE_COMMON_JSON_READER_H
#define DSTRANGE_COMMON_JSON_READER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dstrange {

/**
 * One parsed JSON value: null, bool, number, string, array, or object.
 * Accessors throw std::runtime_error on a kind mismatch so malformed
 * documents surface as exceptions, never as silently-defaulted fields.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /**
     * Parse a complete JSON document (trailing garbage is an error).
     * @throws std::invalid_argument on malformed input, with the byte
     *         offset of the first error in the message.
     */
    static JsonValue parse(const std::string &text);

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }

    /** @throws std::runtime_error unless the value is a Bool. */
    bool asBool() const;
    /** @throws std::runtime_error unless the value is a Number. */
    double asDouble() const;
    /**
     * Number as an unsigned integer, parsed from the original token so
     * 64-bit counters survive beyond double's 2^53 integer range.
     * @throws std::runtime_error unless the value is a non-negative
     *         integer Number.
     */
    std::uint64_t asU64() const;
    /** @throws std::runtime_error unless the value is a String. */
    const std::string &asString() const;
    /** @throws std::runtime_error unless the value is an Array. */
    const std::vector<JsonValue> &array() const;
    /** Object members in document order.
     *  @throws std::runtime_error unless the value is an Object. */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** First member named @p key, or nullptr when absent (or when the
     *  value is not an object). */
    const JsonValue *find(const std::string &key) const;
    /** Like find(), but @throws std::runtime_error naming the missing
     *  @p key — for fields a document must have. */
    const JsonValue &at(const std::string &key) const;

  private:
    friend class JsonParser;

    Kind k = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text; ///< String payload, or the raw number token.
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;
};

} // namespace dstrange

#endif // DSTRANGE_COMMON_JSON_READER_H
