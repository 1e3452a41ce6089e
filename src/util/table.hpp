#pragma once
// Minimal fixed-width text-table printer used by the benchmark harnesses to
// print paper-style result tables, and the CSV row renderer behind every CSV
// report.

#include <string>
#include <vector>

namespace gfi {

/// Accumulates rows of strings and renders an aligned ASCII table.
class TextTable {
public:
    /// Sets the header row (also defines the column count).
    void setHeader(std::vector<std::string> header);

    /// Appends a data row; short rows are padded with empty cells.
    void addRow(std::vector<std::string> row);

    /// Inserts a horizontal separator line before the next row.
    void addSeparator();

    /// Renders the table to a string (trailing newline included).
    [[nodiscard]] std::string str() const;

    /// Renders the table directly to stdout.
    void print() const;

private:
    std::vector<std::string> header_;
    // Each row is either a list of cells or the sentinel "separator" flag.
    struct Row {
        std::vector<std::string> cells;
        bool separator = false;
    };
    std::vector<Row> rows_;
};

/// One CSV line, newline included: the cells joined by commas, a cell that
/// holds a comma, quote or newline quoted with its quotes doubled.
[[nodiscard]] std::string csvRow(const std::vector<std::string>& cells);

} // namespace gfi
