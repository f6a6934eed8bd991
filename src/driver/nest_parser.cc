#include "driver/nest_parser.h"

#include <optional>
#include <sstream>

#include "support/error.h"
#include "support/tokens.h"

namespace uov {

namespace {

[[noreturn]] void
fail(int line_no, const std::string &msg)
{
    throw UovUserError("nest parse error, line " +
                       std::to_string(line_no) + ": " + msg);
}

/**
 * Parse the one "NAME[o1,o2,...]" operand left on a read/write line
 * into a uniform access; a second operand is an error.
 */
Access
parseAccess(std::istream &ss, int line_no)
{
    std::string text, extra;
    ss >> text;
    if (ss >> extra)
        fail(line_no, "unexpected '" + extra + "' after access '" +
                          text + "'");
    auto lb = text.find('[');
    if (lb == std::string::npos || text.back() != ']')
        fail(line_no, "expected NAME[o1,o2,...], got '" + text + "'");
    std::string name = text.substr(0, lb);
    if (name.empty())
        fail(line_no, "empty array name in '" + text + "'");

    std::vector<int64_t> offsets;
    std::string bad;
    if (!tokens::parseTuple(std::string_view(text).substr(lb), offsets,
                            &bad))
        fail(line_no, "bad offset '" + bad + "'");
    if (offsets.empty())
        fail(line_no, "access '" + text + "' has no offsets");
    return uniformAccess(name, IVec(std::move(offsets)));
}

} // namespace

LoopNest
parseNest(std::istream &in)
{
    std::string name;
    std::optional<IVec> lo, hi;
    std::vector<Statement> stmts;
    std::optional<Statement> current;

    auto flush_statement = [&](int line_no) {
        if (!current)
            return;
        if (current->write.array.empty())
            fail(line_no, "statement '" + current->name +
                              "' has no write access");
        stmts.push_back(std::move(*current));
        current.reset();
    };

    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        std::string line = tokens::cleanLine(raw);
        if (line.empty())
            continue;
        std::stringstream ss(line);
        std::string keyword;
        ss >> keyword;

        if (keyword == "nest") {
            ss >> name;
            if (name.empty())
                fail(line_no, "nest needs a name");
        } else if (keyword == "bounds") {
            std::vector<int64_t> los, his;
            std::string range;
            while (ss >> range) {
                int64_t l, h;
                if (!tokens::parseRange(range, l, h))
                    fail(line_no, "bad range '" + range +
                                      (range.find("..") ==
                                               std::string::npos
                                           ? "', expected lo..hi"
                                           : "'"));
                los.push_back(l);
                his.push_back(h);
            }
            if (los.empty())
                fail(line_no, "bounds needs at least one range");
            lo = IVec(std::move(los));
            hi = IVec(std::move(his));
        } else if (keyword == "statement") {
            flush_statement(line_no);
            current.emplace();
            ss >> current->name;
            if (current->name.empty())
                fail(line_no, "statement needs a name");
        } else if (keyword == "write") {
            if (!current)
                fail(line_no, "'write' outside a statement block");
            if (!current->write.array.empty())
                fail(line_no, "statement already has a write");
            current->write = parseAccess(ss, line_no);
        } else if (keyword == "read") {
            if (!current)
                fail(line_no, "'read' outside a statement block");
            current->reads.push_back(parseAccess(ss, line_no));
        } else {
            fail(line_no, "unknown keyword '" + keyword + "'");
        }
    }
    flush_statement(line_no);

    UOV_REQUIRE(!name.empty(), "nest description has no 'nest' line");
    UOV_REQUIRE(lo.has_value(), "nest description has no 'bounds' line");
    UOV_REQUIRE(!stmts.empty(), "nest description has no statements");

    LoopNest nest(name, *lo, *hi);
    for (auto &s : stmts) {
        UOV_REQUIRE(s.write.offset.dim() == nest.depth(),
                    "statement '" << s.name << "' access rank "
                        << s.write.offset.dim()
                        << " does not match bounds rank "
                        << nest.depth());
        nest.addStatement(std::move(s));
    }
    return nest;
}

LoopNest
parseNestString(const std::string &text)
{
    std::istringstream iss(text);
    return parseNest(iss);
}

std::string
formatNest(const LoopNest &nest)
{
    std::ostringstream oss;
    oss << "nest " << nest.name() << "\n";
    oss << "bounds";
    for (size_t c = 0; c < nest.depth(); ++c)
        oss << " " << nest.lo()[c] << ".." << nest.hi()[c];
    oss << "\n";
    auto emit_access = [&](const Access &a) {
        oss << a.array << "[";
        for (size_t c = 0; c < a.offset.dim(); ++c) {
            if (c)
                oss << ",";
            oss << a.offset[c];
        }
        oss << "]";
    };
    for (const auto &s : nest.statements()) {
        oss << "statement " << s.name << "\n";
        oss << "  write ";
        emit_access(s.write);
        oss << "\n";
        for (const auto &r : s.reads) {
            oss << "  read ";
            emit_access(r);
            oss << "\n";
        }
    }
    return oss.str();
}

} // namespace uov
