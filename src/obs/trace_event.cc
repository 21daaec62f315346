#include "obs/trace_event.h"

#include "support/format.h"

namespace cherisem::obs {

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::Alloc:       return "alloc";
      case EventKind::Free:        return "free";
      case EventKind::Realloc:     return "realloc";
      case EventKind::Load:        return "load";
      case EventKind::Store:       return "store";
      case EventKind::TagClear:    return "tag-clear";
      case EventKind::GhostMark:   return "ghost-mark";
      case EventKind::Expose:      return "expose";
      case EventKind::Attach:      return "attach";
      case EventKind::Quarantine:  return "quarantine";
      case EventKind::RevokeSweep: return "revoke-sweep";
      case EventKind::FuncEnter:   return "func-enter";
      case EventKind::FuncExit:    return "func-exit";
      case EventKind::Intrinsic:   return "intrinsic";
      case EventKind::UbRaise:     return "ub-raise";
      case EventKind::Phase:       return "phase";
    }
    return "?";
}

std::string
renderEvent(const TraceEvent &e)
{
    std::string s = "#" + decStr(uint128(e.seq)) + " " +
        eventKindName(e.kind);
    if (!e.label.empty())
        s += " '" + e.label + "'";
    if (e.addr != 0)
        s += " addr=" + hexStr(e.addr);
    if (e.size != 0)
        s += " size=" + decStr(uint128(e.size));
    if (e.a != 0)
        s += " a=" + decStr(uint128(e.a));
    if (e.b != 0)
        s += " b=" + decStr(uint128(e.b));
    if (e.line != 0)
        s += " line=" + decStr(uint128(e.line));
    return s;
}

void
appendJsonEscaped(std::string &out, const std::string &s)
{
    static const char hex[] = "0123456789abcdef";
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            auto u = static_cast<unsigned char>(c);
            if (u < 0x20) {
                const char esc[] = {'\\', 'u', '0', '0', hex[u >> 4],
                                    hex[u & 0xf]};
                out.append(esc, sizeof esc);
            } else {
                out += c;
            }
          }
        }
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    appendJsonEscaped(out, s);
    return out;
}

void
appendEventJson(std::string &out, const TraceEvent &e)
{
    out += "{\"seq\":";
    appendDec(out, e.seq);
    out += ",\"kind\":\"";
    out += eventKindName(e.kind);
    out += '"';
    if (e.addr != 0) {
        out += ",\"addr\":\"";
        appendHex(out, e.addr);
        out += '"';
    }
    auto field = [&out](const char *key, uint64_t v) {
        if (v == 0)
            return;
        out += key;
        appendDec(out, v);
    };
    field(",\"size\":", e.size);
    field(",\"a\":", e.a);
    field(",\"b\":", e.b);
    field(",\"line\":", e.line);
    if (!e.label.empty()) {
        out += ",\"label\":\"";
        appendJsonEscaped(out, e.label);
        out += '"';
    }
    out += '}';
}

std::string
renderEventJson(const TraceEvent &e)
{
    std::string s;
    appendEventJson(s, e);
    return s;
}

} // namespace cherisem::obs
