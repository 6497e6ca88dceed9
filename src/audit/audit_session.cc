#include "src/audit/audit_session.h"

#include <cstdlib>
#include <cstring>

#include "src/common/json.h"
#include "src/snapshot/serializer.h"

namespace memtis {

AuditSession::AuditSession(const AuditSessionOptions& options)
    : auditor_(options.invariants) {
  if (options.record_epochs) {
    recorder_.emplace(options.epochs);
  }
}

void AuditSession::OnTick(Engine& engine) {
  auditor_.OnTick(engine);
  if (recorder_.has_value()) {
    recorder_->OnTick(engine);
  }
}

void AuditSession::OnRunEnd(Engine& engine) {
  auditor_.OnRunEnd(engine);
  if (recorder_.has_value()) {
    recorder_->OnRunEnd(engine);
  }
}

void AuditSession::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("report");
  report().WriteJson(w);
  if (recorder_.has_value()) {
    w.Key("epochs");
    recorder_->WriteJson(w);
  }
  w.EndObject();
}

template <typename Archive, typename Self>
void AuditSession::Serialize(Archive& ar, Self& self) {
  InvariantAuditor::Serialize(ar, self.auditor_);
  // A snapshot taken by a session with different options does not restore.
  ar.Expect(self.recorder_.has_value());
  if (self.recorder_.has_value()) {
    EpochRecorder::Serialize(ar, *self.recorder_);
  }
}

template void AuditSession::Serialize(StateWriter&, const AuditSession&);
template void AuditSession::Serialize(StateReader&, AuditSession&);

bool EnvAuditEnabled() {
  const char* env = std::getenv("MEMTIS_AUDIT");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

std::unique_ptr<AuditSession> MakeEnvAuditSession() {
  if (!EnvAuditEnabled()) {
    return nullptr;
  }
  AuditSessionOptions options;
  options.invariants.abort_on_violation = true;
  // Invariants only: the env hook certifies correctness in existing runs and
  // must stay cheap enough for every ctest case under sanitizers.
  options.record_epochs = false;
  return std::make_unique<AuditSession>(options);
}

}  // namespace memtis
