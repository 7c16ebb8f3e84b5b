#include "common/bench_report.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"

namespace crowdfusion::common {

namespace {

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  std::string out;
  AppendDouble17g(value, &out);  // exact double round-trip
  return out;
}

/// A number field; `null` (a non-finite measurement) reads as NaN.
Result<double> ReadNumber(const JsonValue& value, const std::string& key) {
  if (value.is_null()) return std::nan("");
  if (!value.is_number()) {
    return Status::InvalidArgument("bench report field " + key +
                                   " is not a number");
  }
  return value.GetDouble();
}

/// An integer field: a finite number, cast like the fields it came from.
/// Casting the NaN that "null" reads as would be undefined behavior.
Result<double> ReadCount(const JsonValue& value, const std::string& key) {
  CF_ASSIGN_OR_RETURN(const double number, ReadNumber(value, key));
  if (!std::isfinite(number)) {
    return Status::InvalidArgument("bench report has non-finite integer "
                                   "field " + key);
  }
  return number;
}

/// Reads one record object; unknown keys (of any type) are skipped so the
/// format can grow.
Result<BenchRecord> ParseRecord(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("bench report record is not an object");
  }
  BenchRecord record;
  for (const auto& [key, value] : json.object()) {
    if (key == "source" || key == "config") {
      CF_ASSIGN_OR_RETURN(std::string text, value.GetString());
      (key == "source" ? record.source : record.config) = std::move(text);
    } else if (key == "n" || key == "k") {
      CF_ASSIGN_OR_RETURN(const double count, ReadCount(value, key));
      (key == "n" ? record.n : record.k) = static_cast<int>(count);
    } else if (key == "support" || key == "ok_count" || key == "err_4xx" ||
               key == "err_5xx" || key == "err_transport") {
      // ok_count and the err_* counts are absent from pre-loadgen files.
      CF_ASSIGN_OR_RETURN(const double count, ReadCount(value, key));
      const auto wide = static_cast<int64_t>(count);
      if (key == "support") record.support = wide;
      else if (key == "ok_count") record.ok_count = wide;
      else if (key == "err_4xx") record.err_4xx = wide;
      else if (key == "err_5xx") record.err_5xx = wide;
      else record.err_transport = wide;
    } else if (key == "wall_ms" || key == "entropy_bits" ||
               key == "throughput_per_sec" || key == "p50_ms" ||
               key == "p95_ms" || key == "p99_ms" || key == "p999_ms") {
      // The serving-throughput and tail fields are absent from v1 files.
      CF_ASSIGN_OR_RETURN(const double number, ReadNumber(value, key));
      if (key == "wall_ms") record.wall_ms = number;
      else if (key == "entropy_bits") record.entropy_bits = number;
      else if (key == "throughput_per_sec") record.throughput_per_sec = number;
      else if (key == "p50_ms") record.p50_ms = number;
      else if (key == "p95_ms") record.p95_ms = number;
      else if (key == "p99_ms") record.p99_ms = number;
      else record.p999_ms = number;
    }
  }
  return record;
}

std::string RecordKey(const BenchRecord& record) {
  return StrFormat("%s|%s|%d|%lld|%d", record.source.c_str(),
                   record.config.c_str(), record.n,
                   static_cast<long long>(record.support), record.k);
}

std::string SerializeRecords(const std::vector<BenchRecord>& records) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"crowdfusion-bench-v2\",\n  \"records\": [";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"source\": " << JsonEscape(r.source)
       << ", \"config\": " << JsonEscape(r.config) << ", \"n\": " << r.n
       << ", \"support\": " << r.support << ", \"k\": " << r.k
       << ", \"wall_ms\": " << FormatDouble(r.wall_ms)
       << ", \"entropy_bits\": " << FormatDouble(r.entropy_bits);
    // Serving-throughput fields only appear on rows that measured them,
    // keeping selection-kernel rows in the familiar v1 shape.
    if (r.throughput_per_sec != 0.0 || r.p50_ms != 0.0 || r.p95_ms != 0.0) {
      os << ", \"throughput_per_sec\": " << FormatDouble(r.throughput_per_sec)
         << ", \"p50_ms\": " << FormatDouble(r.p50_ms)
         << ", \"p95_ms\": " << FormatDouble(r.p95_ms);
    }
    // Load-replay extensions: tail percentiles and outcome counts only on
    // rows that replayed traffic, so kernel rows keep their shape. A
    // clean run still serializes its zero error counts — "zero 5xx" is a
    // pinned measurement, not an absent field.
    if (r.p99_ms != 0.0 || r.p999_ms != 0.0) {
      os << ", \"p99_ms\": " << FormatDouble(r.p99_ms)
         << ", \"p999_ms\": " << FormatDouble(r.p999_ms);
    }
    if (r.ok_count != 0 || r.err_4xx != 0 || r.err_5xx != 0 ||
        r.err_transport != 0) {
      os << ", \"ok_count\": " << r.ok_count << ", \"err_4xx\": " << r.err_4xx
         << ", \"err_5xx\": " << r.err_5xx
         << ", \"err_transport\": " << r.err_transport;
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream stream(path, std::ios::out | std::ios::trunc);
  if (!stream.is_open()) {
    return Status::NotFound(
        StrFormat("cannot open %s for writing", path.c_str()));
  }
  stream << text;
  stream.flush();
  if (!stream.good()) {
    return Status::Internal(StrFormat("write to %s failed", path.c_str()));
  }
  return Status::Ok();
}

}  // namespace

BenchReport::BenchReport(std::string default_source)
    : default_source_(std::move(default_source)) {}

void BenchReport::Add(BenchRecord record) {
  if (record.source.empty()) record.source = default_source_;
  records_.push_back(std::move(record));
}

std::string BenchReport::ToJson() const { return SerializeRecords(records_); }

Status BenchReport::WriteFile(const std::string& path) const {
  return WriteText(path, ToJson());
}

Status BenchReport::MergeToFile(const std::string& path) const {
  std::vector<BenchRecord> merged;
  auto existing = Load(path);
  if (existing.ok()) {
    merged = std::move(existing).value();
  } else if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();  // corrupt baseline: refuse to clobber it
  }
  for (const BenchRecord& record : records_) {
    bool replaced = false;
    for (BenchRecord& old : merged) {
      if (RecordKey(old) == RecordKey(record)) {
        old = record;
        replaced = true;
        break;
      }
    }
    if (!replaced) merged.push_back(record);
  }
  return WriteText(path, SerializeRecords(merged));
}

Result<std::vector<BenchRecord>> BenchReport::Load(const std::string& path) {
  std::ifstream stream(path);
  if (!stream.is_open()) {
    return Status::NotFound(StrFormat("no bench report at %s", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  const std::string text = buffer.str();

  auto json = JsonValue::Parse(text);
  if (!json.ok()) {
    return Status::InvalidArgument(
        StrFormat("malformed bench report %s: %s", path.c_str(),
                  json.status().message().c_str()));
  }
  if (!json->is_object()) {
    return Status::InvalidArgument("bench report is not a JSON object");
  }
  std::vector<BenchRecord> records;
  const JsonValue* array = json->Find("records");
  if (array == nullptr) return records;
  if (!array->is_array()) {
    return Status::InvalidArgument("bench report records is not an array");
  }
  for (const JsonValue& item : array->array()) {
    CF_ASSIGN_OR_RETURN(BenchRecord record, ParseRecord(item));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace crowdfusion::common
