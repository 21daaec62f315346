#include "serve/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "obs/trace_event.h"

namespace cherisem::serve {

namespace {

/** Nesting cap: protocol objects are flat, so anything deep is
 *  hostile input, not a use case. */
constexpr int kMaxDepth = 32;

struct Parser
{
    const char *p;
    const char *end;
    std::string err;

    bool
    fail(const std::string &msg)
    {
        if (err.empty())
            err = msg;
        return false;
    }

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    consume(char c)
    {
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        for (const char *w = word; *w; ++w, ++p)
            if (p >= end || *p != *w)
                return fail(std::string("expected '") + word + "'");
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return fail("expected string");
        out->clear();
        while (p < end && *p != '"') {
            unsigned char c = static_cast<unsigned char>(*p);
            if (c == '\\') {
                if (++p >= end)
                    return fail("unterminated escape");
                switch (*p) {
                  case '"': out->push_back('"'); break;
                  case '\\': out->push_back('\\'); break;
                  case '/': out->push_back('/'); break;
                  case 'b': out->push_back('\b'); break;
                  case 'f': out->push_back('\f'); break;
                  case 'n': out->push_back('\n'); break;
                  case 'r': out->push_back('\r'); break;
                  case 't': out->push_back('\t'); break;
                  case 'u': {
                    if (end - p < 5)
                        return fail("truncated \\u escape");
                    unsigned v = 0;
                    for (int i = 1; i <= 4; ++i) {
                        char h = p[i];
                        v <<= 4;
                        if (h >= '0' && h <= '9')
                            v |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            v |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            v |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    p += 4;
                    // UTF-8 encode (surrogate pairs are passed
                    // through as two 3-byte sequences; protocol
                    // sources are ASCII in practice).
                    if (v < 0x80) {
                        out->push_back(static_cast<char>(v));
                    } else if (v < 0x800) {
                        out->push_back(
                            static_cast<char>(0xC0 | (v >> 6)));
                        out->push_back(
                            static_cast<char>(0x80 | (v & 0x3F)));
                    } else {
                        out->push_back(
                            static_cast<char>(0xE0 | (v >> 12)));
                        out->push_back(static_cast<char>(
                            0x80 | ((v >> 6) & 0x3F)));
                        out->push_back(
                            static_cast<char>(0x80 | (v & 0x3F)));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                ++p;
            } else if (c < 0x20) {
                return fail("raw control character in string");
            } else {
                out->push_back(static_cast<char>(c));
                ++p;
            }
        }
        if (!consume('"'))
            return fail("unterminated string");
        return true;
    }

    bool
    parseNumber(Json *out)
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        bool digits = false;
        while (p < end && std::isdigit(static_cast<unsigned char>(*p))) {
            ++p;
            digits = true;
        }
        bool integral = true;
        if (p < end && (*p == '.' || *p == 'e' || *p == 'E')) {
            integral = false;
            while (p < end &&
                   (std::isdigit(static_cast<unsigned char>(*p)) ||
                    *p == '.' || *p == 'e' || *p == 'E' ||
                    *p == '+' || *p == '-'))
                ++p;
        }
        if (!digits)
            return fail("malformed number");
        std::string text(start, p);
        out->kind = Json::Kind::Number;
        out->number = std::strtod(text.c_str(), nullptr);
        if (integral && text[0] != '-') {
            errno = 0;
            char *tail = nullptr;
            uint64_t v = std::strtoull(text.c_str(), &tail, 10);
            if (errno == 0 && tail && *tail == '\0') {
                out->u64 = v;
                out->numberIsU64 = true;
            }
        }
        return true;
    }

    bool
    parseValue(Json *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
          case '{': {
            ++p;
            out->kind = Json::Kind::Object;
            skipWs();
            if (consume('}'))
                return true;
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                Json value;
                if (!parseValue(&value, depth + 1))
                    return false;
                out->obj.emplace(std::move(key), std::move(value));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++p;
            out->kind = Json::Kind::Array;
            skipWs();
            if (consume(']'))
                return true;
            for (;;) {
                Json value;
                if (!parseValue(&value, depth + 1))
                    return false;
                out->arr.push_back(std::move(value));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
          }
          case '"':
            out->kind = Json::Kind::String;
            return parseString(&out->str);
          case 't':
            out->kind = Json::Kind::Bool;
            out->boolean = true;
            return literal("true");
          case 'f':
            out->kind = Json::Kind::Bool;
            out->boolean = false;
            return literal("false");
          case 'n':
            out->kind = Json::Kind::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }
};

} // namespace

const Json *
Json::get(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

std::string
Json::asString(const std::string &fallback) const
{
    return kind == Kind::String ? str : fallback;
}

uint64_t
Json::asU64(uint64_t fallback) const
{
    if (kind != Kind::Number)
        return fallback;
    if (numberIsU64)
        return u64;
    return number < 0 ? fallback : static_cast<uint64_t>(number);
}

bool
Json::asBool(bool fallback) const
{
    return kind == Kind::Bool ? boolean : fallback;
}

bool
parseJson(const std::string &text, Json *out, std::string *err)
{
    Parser parser{text.data(), text.data() + text.size(), {}};
    *out = Json{};
    if (!parser.parseValue(out, 0)) {
        if (err)
            *err = parser.err;
        return false;
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        if (err)
            *err = "trailing characters after value";
        return false;
    }
    return true;
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out.push_back('"');
    obs::appendJsonEscaped(out, s);
    out.push_back('"');
}

namespace {

void
appendValue(std::string &out, const Json &v)
{
    switch (v.kind) {
      case Json::Kind::Null:
        out += "null";
        break;
      case Json::Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case Json::Kind::Number: {
        char buf[40];
        if (v.numberIsU64)
            std::snprintf(buf, sizeof buf, "%llu",
                          (unsigned long long)v.u64);
        else
            std::snprintf(buf, sizeof buf, "%.17g", v.number);
        out += buf;
        break;
      }
      case Json::Kind::String:
        appendJsonString(out, v.str);
        break;
      case Json::Kind::Array: {
        out.push_back('[');
        bool first = true;
        for (const Json &e : v.arr) {
            if (!first)
                out.push_back(',');
            first = false;
            appendValue(out, e);
        }
        out.push_back(']');
        break;
      }
      case Json::Kind::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto &[key, val] : v.obj) {
            if (!first)
                out.push_back(',');
            first = false;
            appendJsonString(out, key);
            out.push_back(':');
            appendValue(out, val);
        }
        out.push_back('}');
        break;
      }
    }
}

} // namespace

std::string
renderJson(const Json &value)
{
    std::string out;
    appendValue(out, value);
    return out;
}

} // namespace cherisem::serve
