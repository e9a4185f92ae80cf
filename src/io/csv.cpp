#include "io/csv.h"

#include <stdexcept>

namespace antalloc {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::vector<std::string> split_names(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

CsvWriter::CsvWriter(const std::string& path,
                     std::span<const std::string> columns)
    : path_(path), out_(path), columns_(columns.size()) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c != 0) out_ << ',';
    out_ << columns[c];
  }
  out_ << '\n';
}

void CsvWriter::write_row(std::span<const double> values) {
  if (values.size() != columns_) {
    throw std::invalid_argument("CsvWriter: row width mismatch");
  }
  for (std::size_t c = 0; c < values.size(); ++c) {
    if (c != 0) out_ << ',';
    out_ << values[c];
  }
  out_ << '\n';
}

void CsvWriter::write_row(std::span<const std::string> cells) {
  if (cells.size() != columns_) {
    throw std::invalid_argument("CsvWriter: row width mismatch");
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c != 0) out_ << ',';
    out_ << cells[c];
  }
  out_ << '\n';
}

std::string write_csv(const std::string& path,
                      std::span<const std::string> columns,
                      std::span<const std::vector<double>> rows) {
  CsvWriter writer(path, columns);
  for (const auto& row : rows) writer.write_row(row);
  return path;
}

}  // namespace antalloc
