#include "util/table.hpp"

#include <algorithm>
#include <cstdio>

namespace gfi {

void TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void TextTable::addRow(std::vector<std::string> row)
{
    rows_.push_back({std::move(row), false});
}

void TextTable::addSeparator()
{
    rows_.push_back({{}, true});
}

std::string TextTable::str() const
{
    std::size_t columns = header_.size();
    for (const Row& r : rows_) {
        columns = std::max(columns, r.cells.size());
    }
    std::vector<std::size_t> width(columns, 0);
    auto measure = [&](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            width[i] = std::max(width[i], cells[i].size());
        }
    };
    measure(header_);
    for (const Row& r : rows_) {
        measure(r.cells);
    }

    auto renderLine = [&](const std::vector<std::string>& cells) {
        std::string line = "|";
        for (std::size_t i = 0; i < columns; ++i) {
            const std::string& cell = i < cells.size() ? cells[i] : std::string{};
            line += " " + cell + std::string(width[i] - cell.size(), ' ') + " |";
        }
        return line + "\n";
    };
    auto renderSep = [&] {
        std::string line = "+";
        for (std::size_t i = 0; i < columns; ++i) {
            line += std::string(width[i] + 2, '-') + "+";
        }
        return line + "\n";
    };

    std::string out;
    out += renderSep();
    if (!header_.empty()) {
        out += renderLine(header_);
        out += renderSep();
    }
    for (const Row& r : rows_) {
        out += r.separator ? renderSep() : renderLine(r.cells);
    }
    out += renderSep();
    return out;
}

void TextTable::print() const
{
    const std::string s = str();
    std::fwrite(s.data(), 1, s.size(), stdout);
}

std::string csvRow(const std::vector<std::string>& cells)
{
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string& cell = cells[i];
        line += i > 0 ? "," : "";
        if (cell.find_first_of(",\"\n") == std::string::npos) {
            line += cell;
            continue;
        }
        line += '"';
        for (char c : cell) {
            if (c == '"') {
                line += '"';
            }
            line += c;
        }
        line += '"';
    }
    line += '\n';
    return line;
}

} // namespace gfi
