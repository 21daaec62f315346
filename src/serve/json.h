/**
 * @file
 * Minimal JSON for the serving layer's newline-delimited protocol.
 *
 * The repo renders JSON in several places (trace sinks, fuzz
 * reports, bench harnesses) but the serving layer is the first
 * consumer that must *parse* it.  This is a small, dependency-free
 * recursive-descent parser over a string (one protocol line at a
 * time), plus the escaping helper the renderers share.  It is not a
 * general-purpose library: numbers are doubles with an exact-uint64
 * fast path (protocol fields are ids and budgets), and input depth
 * is capped — a hostile request cannot stack-overflow a worker.
 */
#ifndef CHERISEM_SERVE_JSON_H
#define CHERISEM_SERVE_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cherisem::serve {

/** A parsed JSON value (tree of these). */
struct Json
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    /** Exact value when the literal was an unsigned integer that
     *  fits; numberIsU64 marks it.  Budgets (max_steps) survive
     *  beyond 2^53 this way. */
    uint64_t u64 = 0;
    bool numberIsU64 = false;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    bool isObject() const { return kind == Kind::Object; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; nullptr when absent or not an object. */
    const Json *get(const std::string &key) const;

    /** Typed accessors with defaults (missing/mistyped -> fallback,
     *  callers validate presence separately where it matters). */
    std::string asString(const std::string &fallback = {}) const;
    uint64_t asU64(uint64_t fallback = 0) const;
    bool asBool(bool fallback = false) const;
};

/** Parse @p text (one complete JSON value, surrounding whitespace
 *  allowed).  Returns false and sets @p err on malformed input. */
bool parseJson(const std::string &text, Json *out, std::string *err);

/** Append @p s to @p out as a quoted JSON string, escaped by
 *  obs::appendJsonEscaped(). */
void appendJsonString(std::string &out, const std::string &s);

/** Render @p value back to compact JSON (object keys in map order).
 *  parseJson(renderJson(v)) reproduces v. */
std::string renderJson(const Json &value);

} // namespace cherisem::serve

#endif // CHERISEM_SERVE_JSON_H
