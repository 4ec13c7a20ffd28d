#include "skalla/persistence.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "storage/serializer.h"

namespace skalla {

namespace {

namespace fs = std::filesystem;

constexpr const char* kMagicLine = "skalla-warehouse 1";

// ---- Value tokens: n | i<int> | d<double> | x<hex> (string) ----

std::string EncodeValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "n";
    case ValueType::kInt64:
      return StrFormat("i%lld", static_cast<long long>(v.AsInt64()));
    case ValueType::kDouble:
      return StrFormat("d%.17g", v.AsDouble());
    case ValueType::kString: {
      std::string out = "x";
      for (unsigned char c : v.AsString()) {
        out += StrFormat("%02x", c);
      }
      return out;
    }
  }
  return "n";
}

Result<Value> DecodeValue(const std::string& token) {
  if (token.empty()) return Status::IoError("empty value token");
  const std::string payload = token.substr(1);
  switch (token[0]) {
    case 'n':
      return Value::Null();
    case 'i': {
      const std::optional<int64_t> v = ParseInt64(payload);
      if (!v.has_value()) {
        return Status::IoError("bad int token '" + token + "'");
      }
      return Value(*v);
    }
    case 'd': {
      char* end = nullptr;
      const double v = std::strtod(payload.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::IoError("bad double token '" + token + "'");
      }
      return Value(v);
    }
    case 'x': {
      if (payload.size() % 2 != 0) {
        return Status::IoError("bad hex token '" + token + "'");
      }
      std::string out;
      out.reserve(payload.size() / 2);
      for (size_t i = 0; i < payload.size(); i += 2) {
        const std::string byte = payload.substr(i, 2);
        char* end = nullptr;
        const long v = std::strtol(byte.c_str(), &end, 16);
        if (end == nullptr || *end != '\0') {
          return Status::IoError("bad hex byte '" + byte + "'");
        }
        out.push_back(static_cast<char>(v));
      }
      return Value(std::move(out));
    }
    default:
      return Status::IoError("unknown value token '" + token + "'");
  }
}

Status WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path.string() + "'");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IoError("write failed for '" + path.string() + "'");
  return Status::OK();
}

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path.string() + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

Status SaveWarehouse(const Warehouse& warehouse, const std::string& dir) {
  const fs::path root(dir);
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    return Status::IoError("cannot create directory '" + dir + "': " +
                           ec.message());
  }

  std::ostringstream manifest;
  manifest << kMagicLine << "\n";
  manifest << "sites " << warehouse.num_sites() << "\n";

  // All tables (every site holds a fragment of every loaded relation).
  const std::vector<std::string> tables =
      warehouse.num_sites() > 0 ? warehouse.site(0).catalog().TableNames()
                                : std::vector<std::string>{};
  for (const std::string& table : tables) {
    manifest << "table " << table << "\n";
  }

  for (int s = 0; s < warehouse.num_sites(); ++s) {
    const Site& site = warehouse.site(s);
    const fs::path site_dir = root / ("site" + std::to_string(s));
    fs::create_directories(site_dir, ec);
    if (ec) {
      return Status::IoError("cannot create '" + site_dir.string() + "'");
    }
    manifest << "site " << s << "\n";
    for (const auto& [attr, domain] : site.partition_info().domains()) {
      switch (domain.kind) {
        case AttrDomain::Kind::kAny:
          break;
        case AttrDomain::Kind::kRange:
          manifest << "domain " << attr << " range "
                   << EncodeValue(domain.lo) << " " << EncodeValue(domain.hi)
                   << "\n";
          break;
        case AttrDomain::Kind::kValueSet: {
          manifest << "domain " << attr << " set " << domain.values.size();
          for (const Value& v : domain.values) {
            manifest << " " << EncodeValue(v);
          }
          manifest << "\n";
          break;
        }
      }
    }
    for (const std::string& table : tables) {
      SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> fragment,
                              site.catalog().GetTable(table));
      SKALLA_RETURN_NOT_OK(
          WriteFile(site_dir / (table + ".skl"),
                    Serializer::SerializeTable(*fragment)));
    }
  }
  return WriteFile(root / "MANIFEST", manifest.str());
}

Result<std::unique_ptr<Warehouse>> LoadWarehouse(const std::string& dir) {
  const fs::path root(dir);
  SKALLA_ASSIGN_OR_RETURN(std::string manifest_text,
                          ReadFile(root / "MANIFEST"));
  std::istringstream manifest(manifest_text);
  std::string line;
  if (!std::getline(manifest, line) || line != kMagicLine) {
    return Status::IoError("bad warehouse manifest magic");
  }

  int num_sites = -1;
  std::vector<std::string> tables;
  std::vector<PartitionInfo> infos;
  int current_site = -1;

  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "sites") {
      fields >> num_sites;
      if (num_sites < 0 || !fields) {
        return Status::IoError("bad sites line '" + line + "'");
      }
      infos.resize(static_cast<size_t>(num_sites));
    } else if (keyword == "table") {
      std::string name;
      fields >> name;
      tables.push_back(name);
    } else if (keyword == "site") {
      fields >> current_site;
      if (!fields || current_site < 0 || current_site >= num_sites) {
        return Status::IoError("bad site line '" + line + "'");
      }
    } else if (keyword == "domain") {
      if (current_site < 0) {
        return Status::IoError("domain line before any site line");
      }
      std::string attr;
      std::string kind;
      fields >> attr >> kind;
      PartitionInfo& info = infos[static_cast<size_t>(current_site)];
      if (kind == "range") {
        std::string lo_tok;
        std::string hi_tok;
        fields >> lo_tok >> hi_tok;
        SKALLA_ASSIGN_OR_RETURN(Value lo, DecodeValue(lo_tok));
        SKALLA_ASSIGN_OR_RETURN(Value hi, DecodeValue(hi_tok));
        info.SetDomain(attr, AttrDomain::Range(std::move(lo), std::move(hi)));
      } else if (kind == "set") {
        size_t count = 0;
        fields >> count;
        std::vector<Value> values;
        values.reserve(count);
        for (size_t i = 0; i < count; ++i) {
          std::string tok;
          fields >> tok;
          SKALLA_ASSIGN_OR_RETURN(Value v, DecodeValue(tok));
          values.push_back(std::move(v));
        }
        info.SetDomain(attr, AttrDomain::Set(std::move(values)));
      } else {
        return Status::IoError("unknown domain kind '" + kind + "'");
      }
    } else {
      return Status::IoError("unknown manifest keyword '" + keyword + "'");
    }
  }
  if (num_sites < 0) {
    return Status::IoError("manifest missing sites line");
  }

  auto warehouse = std::make_unique<Warehouse>(num_sites);
  for (const std::string& table : tables) {
    PartitionedData data;
    for (int s = 0; s < num_sites; ++s) {
      const fs::path path =
          root / ("site" + std::to_string(s)) / (table + ".skl");
      SKALLA_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
      SKALLA_ASSIGN_OR_RETURN(Table fragment,
                              Serializer::DeserializeTable(bytes));
      data.fragments.push_back(
          std::make_shared<const Table>(std::move(fragment)));
    }
    data.infos.resize(static_cast<size_t>(num_sites));
    SKALLA_RETURN_NOT_OK(warehouse->LoadPartitioned(table, std::move(data)));
  }
  for (int s = 0; s < num_sites; ++s) {
    for (const auto& [attr, domain] : infos[static_cast<size_t>(s)].domains()) {
      warehouse->site(s).mutable_partition_info().SetDomain(attr, domain);
    }
  }
  return warehouse;
}

}  // namespace skalla
