/**
 * @file
 * The lexical rules shared by the text formats: '#' comments, signed
 * decimal integers, bracketed tuples "[o1,o2,...]" and ranges
 * "lo..hi".  The nest format (driver/nest_parser) and the query
 * protocol (service/executor) read their lines, offsets, dependences
 * and bounds through these functions, so the two accept exactly the
 * same tokens; each caller words its own error message.
 *
 * Every token function consumes the whole token: trailing junk, an
 * empty element, a dangling comma and int64 overflow are all
 * rejections.
 */

#ifndef UOV_SUPPORT_TOKENS_H
#define UOV_SUPPORT_TOKENS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace uov {
namespace tokens {

/** @p raw without its '#' comment and surrounding blanks. */
std::string cleanLine(std::string_view raw);

/** A signed decimal integer ("-3", "+7", "12"). */
bool parseInt(std::string_view tok, int64_t &out);

/** "lo..hi": an integer on each side of the first "..". */
bool parseRange(std::string_view tok, int64_t &lo, int64_t &hi);

/**
 * "[o1,o2,...]"; "[]" yields no elements (callers that need one say
 * so).  On failure @p bad, when given, receives the first element that
 * is not an integer, or the whole token when the brackets are missing.
 */
bool parseTuple(std::string_view tok, std::vector<int64_t> &out,
                std::string *bad = nullptr);

} // namespace tokens
} // namespace uov

#endif // UOV_SUPPORT_TOKENS_H
