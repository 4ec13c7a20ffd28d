#include "storage/csv.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace skalla {

namespace {

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& s) {
  if (!NeedsQuoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

/// Splits one CSV record honoring quotes; returns false on unbalanced quote.
bool SplitCsvLine(const std::string& line, std::vector<std::string>* fields) {
  fields->clear();
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields->push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields->push_back(std::move(cur));
  return !in_quotes;
}

Result<Value> ParseField(const std::string& text, ValueType type) {
  if (text.empty()) return Value::Null();
  switch (type) {
    case ValueType::kInt64: {
      const std::optional<int64_t> v = ParseInt64(text);
      if (!v.has_value()) {
        return Status::InvalidArgument("bad int64 field '" + text +
                                       "': not an integer in the int64 range");
      }
      return Value(*v);
    }
    case ValueType::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("bad double field '" + text + "'");
      }
      return Value(v);
    }
    case ValueType::kString:
      return Value(text);
    case ValueType::kNull:
      return Value::Null();
  }
  return Status::InvalidArgument("bad field type");
}

Result<Table> ParseCsv(std::istream& in, SchemaPtr schema) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IoError("empty csv input");
  }
  std::vector<std::string> header;
  if (!SplitCsvLine(line, &header)) {
    return Status::IoError("unbalanced quotes in csv header");
  }
  if (static_cast<int>(header.size()) != schema->num_fields()) {
    return Status::InvalidArgument(StrFormat(
        "csv header has %zu fields, schema has %d", header.size(),
        schema->num_fields()));
  }
  for (int i = 0; i < schema->num_fields(); ++i) {
    if (header[static_cast<size_t>(i)] != schema->field(i).name) {
      return Status::InvalidArgument(
          "csv header field '" + header[static_cast<size_t>(i)] +
          "' does not match schema field '" + schema->field(i).name + "'");
    }
  }
  Table table(schema);
  std::vector<std::string> fields;
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (!SplitCsvLine(line, &fields)) {
      return Status::IoError(StrFormat("unbalanced quotes at line %lld",
                                       static_cast<long long>(line_no)));
    }
    if (static_cast<int>(fields.size()) != schema->num_fields()) {
      return Status::InvalidArgument(
          StrFormat("line %lld has %zu fields, want %d",
                    static_cast<long long>(line_no), fields.size(),
                    schema->num_fields()));
    }
    Row row;
    row.reserve(fields.size());
    for (int c = 0; c < schema->num_fields(); ++c) {
      SKALLA_ASSIGN_OR_RETURN(
          Value v, ParseField(fields[static_cast<size_t>(c)],
                              schema->field(c).type));
      row.push_back(std::move(v));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace

std::string CsvToString(const Table& table) {
  std::ostringstream os;
  const Schema& schema = table.schema();
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (c) os << ",";
    os << QuoteField(schema.field(c).name);
  }
  os << "\n";
  for (const Row& row : table.rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) os << ",";
      if (!row[c].is_null()) os << QuoteField(row[c].ToString());
    }
    os << "\n";
  }
  return os.str();
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << CsvToString(table);
  if (!out) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

Result<Table> ReadCsv(const std::string& path, SchemaPtr schema) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  return ParseCsv(in, std::move(schema));
}

Result<Table> CsvFromString(const std::string& text, SchemaPtr schema) {
  std::istringstream in(text);
  return ParseCsv(in, std::move(schema));
}

}  // namespace skalla
