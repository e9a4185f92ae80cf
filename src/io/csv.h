// Tiny CSV file writer (used by benches to dump raw series next to the
// printed tables).
#pragma once

#include <fstream>
#include <span>
#include <string>
#include <vector>

namespace antalloc {

// RFC-4180 escaping for one cell: quoted (with doubled inner quotes) only
// when the value contains a comma, quote or newline. Shared by Table::to_csv
// and the campaign shard writer — the shard format's bit-identity contract
// depends on both producers escaping identically.
std::string csv_escape(const std::string& cell);

// Splits a comma-separated name list ("regret,violations"), dropping empty
// items: "" and ",," yield no names. Shared by the command-line list flags
// and the shard manifest's metric list.
std::vector<std::string> split_names(const std::string& list);

class CsvWriter {
 public:
  // Opens (truncates) `path` and writes the header row. Throws on failure.
  CsvWriter(const std::string& path, std::span<const std::string> columns);

  void write_row(std::span<const double> values);
  void write_row(std::span<const std::string> cells);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t columns_;
};

// Writes a whole table-shaped CSV in one call; returns the path.
std::string write_csv(const std::string& path,
                      std::span<const std::string> columns,
                      std::span<const std::vector<double>> rows);

}  // namespace antalloc
