#include "support/tokens.h"

#include <charconv>

namespace uov {
namespace tokens {

std::string
cleanLine(std::string_view raw)
{
    raw = raw.substr(0, raw.find('#'));
    size_t b = raw.find_first_not_of(" \t\r");
    if (b == std::string_view::npos)
        return "";
    size_t e = raw.find_last_not_of(" \t\r");
    return std::string(raw.substr(b, e - b + 1));
}

bool
parseInt(std::string_view tok, int64_t &out)
{
    // from_chars takes no '+'; strip one only when a digit follows,
    // so "+-3" stays a rejection.
    if (tok.size() > 1 && tok[0] == '+' && tok[1] >= '0' && tok[1] <= '9')
        tok.remove_prefix(1);
    const char *end = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), end, out);
    return ec == std::errc() && ptr == end;
}

bool
parseRange(std::string_view tok, int64_t &lo, int64_t &hi)
{
    size_t dots = tok.find("..");
    return dots != std::string_view::npos &&
           parseInt(tok.substr(0, dots), lo) &&
           parseInt(tok.substr(dots + 2), hi);
}

bool
parseTuple(std::string_view tok, std::vector<int64_t> &out,
           std::string *bad)
{
    out.clear();
    if (tok.size() < 2 || tok.front() != '[' || tok.back() != ']') {
        if (bad != nullptr)
            *bad = tok;
        return false;
    }
    std::string_view body = tok.substr(1, tok.size() - 2);
    if (body.empty())
        return true;
    for (;;) {
        size_t comma = body.find(',');
        std::string_view elem = body.substr(0, comma);
        int64_t v;
        if (!parseInt(elem, v)) {
            if (bad != nullptr)
                *bad = elem;
            return false;
        }
        out.push_back(v);
        if (comma == std::string_view::npos)
            return true;
        body.remove_prefix(comma + 1);
    }
}

} // namespace tokens
} // namespace uov
