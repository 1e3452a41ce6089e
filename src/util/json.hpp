#pragma once
// Minimal JSON value model + recursive-descent parser, and the one writer
// every JSON document in the library is built with.
//
// This is the only JSON reader: benchdiff, the campaign journal and the
// golden-store metadata all go through parseJson. It is the smallest
// standard-compliant reader that covers them: all JSON types, standard
// escapes including \uXXXX (encoded as UTF-8), nesting-depth bound,
// order-preserving objects (so round-tripped key order is inspectable).
// Throws std::runtime_error with a byte offset on malformed input.
//
// JsonWriter is the only place that knows JSON syntax on the way out:
// escaping, separators and layout.

#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace gfi::util {

class JsonValue;

/// Object member list, document order. Duplicate keys are kept (lookup
/// returns the first), matching how lenient parsers treat them.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

/// One parsed JSON value.
class JsonValue {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;
    explicit JsonValue(bool b) : type_(Type::Bool), bool_(b) {}
    explicit JsonValue(double d) : type_(Type::Number), num_(d) {}
    explicit JsonValue(std::string s) : type_(Type::String), str_(std::move(s)) {}
    explicit JsonValue(JsonArray a)
        : type_(Type::Array), arr_(std::make_shared<JsonArray>(std::move(a)))
    {
    }
    explicit JsonValue(JsonObject o)
        : type_(Type::Object), obj_(std::make_shared<JsonObject>(std::move(o)))
    {
    }

    [[nodiscard]] Type type() const noexcept { return type_; }
    [[nodiscard]] bool isNull() const noexcept { return type_ == Type::Null; }
    [[nodiscard]] bool isBool() const noexcept { return type_ == Type::Bool; }
    [[nodiscard]] bool isNumber() const noexcept { return type_ == Type::Number; }
    [[nodiscard]] bool isString() const noexcept { return type_ == Type::String; }
    [[nodiscard]] bool isArray() const noexcept { return type_ == Type::Array; }
    [[nodiscard]] bool isObject() const noexcept { return type_ == Type::Object; }

    [[nodiscard]] bool asBool() const { return require(Type::Bool), bool_; }
    [[nodiscard]] double asNumber() const { return require(Type::Number), num_; }

    /// A Number holding a whole value of magnitude <= 2^53 (the integers a
    /// double stores exactly) that fits @p T; throws std::runtime_error
    /// otherwise, so a corrupt count is rejected instead of truncated.
    template <typename T>
    [[nodiscard]] T asInteger() const
    {
        const double d = asNumber();
        if (d != std::trunc(d) || std::fabs(d) > 9007199254740992.0 ||
            d < static_cast<double>(std::numeric_limits<T>::min()) ||
            d > static_cast<double>(std::numeric_limits<T>::max())) {
            throw std::runtime_error("JsonValue: not an exact integer in range");
        }
        return static_cast<T>(d);
    }

    [[nodiscard]] const std::string& asString() const
    {
        return require(Type::String), str_;
    }
    [[nodiscard]] const JsonArray& asArray() const { return require(Type::Array), *arr_; }
    [[nodiscard]] const JsonObject& asObject() const
    {
        return require(Type::Object), *obj_;
    }

    /// First member named @p key, or nullptr (also nullptr on non-objects).
    [[nodiscard]] const JsonValue* find(const std::string& key) const
    {
        if (type_ != Type::Object) {
            return nullptr;
        }
        for (const auto& [k, v] : *obj_) {
            if (k == key) {
                return &v;
            }
        }
        return nullptr;
    }

private:
    void require(Type t) const
    {
        if (type_ != t) {
            throw std::runtime_error("JsonValue: wrong type access");
        }
    }

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::shared_ptr<JsonArray> arr_;  ///< shared: JsonValue stays copyable
    std::shared_ptr<JsonObject> obj_;
};

/// Parses one JSON document (leading/trailing whitespace allowed, nothing
/// else after the value). Throws std::runtime_error on malformed input,
/// including numbers that overflow a double.
[[nodiscard]] JsonValue parseJson(const std::string& text);

/// Escapes @p s for the inside of a JSON string literal: quote, backslash,
/// \n, \t and \r by name, every other byte below 0x20 as \u00XX, all other
/// bytes verbatim — so parseJson reads back exactly @p s.
[[nodiscard]] std::string jsonEscape(const std::string& s);

/// Builds one JSON document in place, appending to a caller's string with no
/// temporary per value. key() names the next object member; anything else
/// written becomes the next array element (or the document itself). Doubles
/// take explicit significant digits ("%.*g", at most 17).
class JsonWriter {
public:
    /// Inline: {"a": 1, "b": 2}. Block: one member per line, indented two
    /// spaces per enclosing Block container; the closing bracket, also of an
    /// empty Block, goes on its own line at its parent's indent.
    enum class Layout { Inline, Block };

    explicit JsonWriter(std::string& out) noexcept : out_(out) {}

    JsonWriter& beginObject(Layout layout = Layout::Inline) { return begin('{', '}', layout); }
    JsonWriter& beginArray(Layout layout = Layout::Inline) { return begin('[', ']', layout); }
    JsonWriter& end(); ///< closes the innermost open object or array
    JsonWriter& key(std::string_view name);

    JsonWriter& value(std::string_view s);
    JsonWriter& value(const std::vector<std::string>& items);
    JsonWriter& value(double v, int significantDigits);
    template <std::integral T>
    JsonWriter& value(T v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            return raw(v ? "true" : "false");
        } else {
            char buf[24];
            const char* last = std::to_chars(buf, buf + sizeof buf, v).ptr;
            return raw(std::string_view(buf, static_cast<std::size_t>(last - buf)));
        }
    }
    JsonWriter& null() { return raw("null"); }
    /// Text that is already JSON: an embedded document, or a number rendered
    /// by the caller's own rule.
    JsonWriter& raw(std::string_view json);

    /// key(name), then value(v...).
    template <typename... V>
    JsonWriter& member(std::string_view name, const V&... v)
    {
        key(name);
        return value(v...);
    }

private:
    struct Frame {
        char close;
        bool block;
        bool empty;
    };

    JsonWriter& begin(char open, char close, Layout layout);
    void separate(); ///< writes what goes before the next member or element

    std::string& out_;
    std::array<Frame, 16> frames_{}; ///< open containers, innermost last
    int depth_ = 0;
    int blockDepth_ = 0;
    bool afterKey_ = false;
};

} // namespace gfi::util
