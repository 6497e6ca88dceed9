// A snapshot field carried as one string through its type's lossless
// WriteJson/FromJson codec (Metrics, AuditReport, EpochSample); the reader
// latches the archive's error flag on anything that does not decode.

#ifndef MEMTIS_SIM_SRC_SNAPSHOT_JSON_FIELD_H_
#define MEMTIS_SIM_SRC_SNAPSHOT_JSON_FIELD_H_

#include <string>
#include <utility>

#include "src/common/json.h"
#include "src/common/json_parse.h"

namespace memtis {

template <typename Archive, typename T>
void SerializeJson(Archive& ar, T& value) {
  std::string json;
  if constexpr (!Archive::kReading) {
    JsonWriter w(&json);
    value.WriteJson(w);
  }
  ar.Str(json);
  if constexpr (Archive::kReading) {
    JsonValue v;
    T restored;
    if (!ar.ok() || !JsonValue::Parse(json, &v, nullptr) ||
        !T::FromJson(v, &restored)) {
      ar.Fail();
      return;
    }
    value = std::move(restored);
  }
}

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_SNAPSHOT_JSON_FIELD_H_
