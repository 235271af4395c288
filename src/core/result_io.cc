#include "core/result_io.h"

#include <cstdio>

#include "core/engine.h"

namespace trips::core {

json::Value SemanticsToJson(const MobilitySemanticsSequence& seq) {
  json::Object root;
  root["device"] = seq.device_id;
  json::Array arr;
  for (const MobilitySemantic& s : seq.semantics) {
    json::Object js;
    js["event"] = s.event;
    js["region"] = s.region;
    js["region_name"] = s.region_name;
    js["begin"] = static_cast<int64_t>(s.range.begin);
    js["end"] = static_cast<int64_t>(s.range.end);
    js["inferred"] = s.inferred;
    arr.push_back(std::move(js));
  }
  root["semantics"] = std::move(arr);
  return root;
}

Result<MobilitySemanticsSequence> SemanticsFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::ParseError("result document must be an object");
  }
  MobilitySemanticsSequence seq;
  seq.device_id = value.GetString("device");
  const json::Value* arr = value.AsObject().Find("semantics");
  if (arr == nullptr || !arr->is_array()) {
    return Status::ParseError("missing 'semantics' array");
  }
  for (const json::Value& js : arr->AsArray()) {
    if (!js.is_object()) return Status::ParseError("semantics entry must be object");
    MobilitySemantic s;
    s.event = js.GetString("event");
    s.region = static_cast<dsm::RegionId>(js.GetInt("region", dsm::kInvalidRegion));
    s.region_name = js.GetString("region_name");
    s.range.begin = js.GetInt("begin");
    s.range.end = js.GetInt("end");
    s.inferred = js.GetBool("inferred");
    if (!s.range.Valid()) return Status::ParseError("invalid time range in entry");
    seq.semantics.push_back(std::move(s));
  }
  return seq;
}

Status WriteResultFile(const MobilitySemanticsSequence& seq, const std::string& path) {
  return json::WriteFile(SemanticsToJson(seq), path);
}

Result<MobilitySemanticsSequence> ReadResultFile(const std::string& path) {
  TRIPS_ASSIGN_OR_RETURN(json::Value doc, json::ParseFile(path));
  return SemanticsFromJson(doc);
}

std::string RenderTable1(const positioning::PositioningSequence& raw,
                         const MobilitySemanticsSequence& semantics,
                         size_t max_raw_rows) {
  std::string out;
  out += "Raw Positioning Records                 | Mobility Semantics\n";
  out += "----------------------------------------+------------------------------------------\n";
  size_t left_rows = std::min(raw.records.size(), max_raw_rows);
  if (raw.records.size() > max_raw_rows) ++left_rows;  // elision row
  size_t rows = std::max(left_rows, semantics.semantics.size());
  char buf[128];
  for (size_t i = 0; i < rows; ++i) {
    std::string left;
    if (i < raw.records.size() && i < max_raw_rows) {
      const positioning::RawRecord& r = raw.records[i];
      std::snprintf(buf, sizeof(buf), "%s, (%.1f, %.1f, %dF), %s",
                    raw.device_id.c_str(), r.location.xy.x, r.location.xy.y,
                    r.location.floor + 1, FormatClock(r.timestamp).c_str());
      left = buf;
    } else if (i == max_raw_rows && raw.records.size() > max_raw_rows) {
      left = "  ... (" + std::to_string(raw.records.size() - max_raw_rows) +
             " more records)";
    }
    left.resize(40, ' ');
    std::string right =
        i < semantics.semantics.size() ? semantics.semantics[i].ToString() : "";
    out += left + "| " + right + "\n";
  }
  return out;
}

Result<size_t> ExportResultFiles(const std::vector<TranslationResult>& results,
                                 const std::string& dir) {
  size_t written = 0;
  for (const TranslationResult& r : results) {
    std::string name = r.semantics.device_id;
    for (char& c : name) {
      if (c == '/' || c == '\\' || c == ':') c = '_';
    }
    TRIPS_RETURN_NOT_OK(
        WriteResultFile(r.semantics, dir + "/" + name + ".result.json"));
    ++written;
  }
  return written;
}

}  // namespace trips::core
