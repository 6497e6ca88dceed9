#include "src/runner/coordinator.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include "src/common/json.h"
#include "src/common/json_parse.h"
#include "src/common/netio.h"
#include "src/runner/job_codec.h"

namespace memtis {
namespace {

constexpr int kPollTickMs = 50;
constexpr int kFileScanSleepMs = 40;
constexpr uint64_t kBackoffCapMs = 10'000;

// Deterministic exponential backoff before attempt k > 0:
// min(base_ms << (k - 1), kBackoffCapMs).
uint64_t BackoffMs(uint64_t base_ms, int attempt) {
  if (base_ms >= kBackoffCapMs) {
    return kBackoffCapMs;
  }
  const uint64_t backoff = base_ms << (attempt - 1 < 16 ? attempt - 1 : 16);
  return backoff < kBackoffCapMs ? backoff : kBackoffCapMs;
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

bool AppendLine(const std::string& path, const std::string& line) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return false;
  }
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  std::fflush(f);
  std::fclose(f);
  return true;
}

}  // namespace

Campaign::Campaign(const std::vector<JobSpec>& jobs,
                   const ExecOptions& options,
                   const std::map<std::string, ManifestEntry>& preloaded,
                   const ProgressFn& progress, std::string* manifest_error)
    : jobs_(jobs), options_(options), progress_(progress) {
  if (options_.max_attempts < 1) {
    options_.max_attempts = 1;
  }
  fingerprints_.reserve(jobs.size());
  for (const JobSpec& job : jobs) {
    fingerprints_.push_back(JobFingerprint(job));
  }
  states_.resize(jobs.size());
  outcomes_.resize(jobs.size());
  if (!options_.manifest_path.empty()) {
    std::string open_error;
    if (!writer_.Open(options_.manifest_path, &open_error) &&
        manifest_error != nullptr) {
      *manifest_error = open_error;  // serve anyway; checkpointing is lost
    }
  }
  // Resume pass: trust only ok manifest entries; failed cells re-run.
  for (size_t i = 0; i < jobs.size(); ++i) {
    const auto it = preloaded.find(fingerprints_[i]);
    if (it == preloaded.end() || !it->second.ok) {
      continue;
    }
    CellOutcome& out = outcomes_[i];
    out.ok = true;
    out.from_manifest = true;
    out.attempts = it->second.attempts;
    out.result = it->second.result;
    states_[i].phase = CellPhase::kDone;
    ++decided_;
    Report(i);
  }
}

void Campaign::CheckCancelled() {
  if (!cancel_latched_ && options_.cancelled != nullptr && options_.cancelled()) {
    cancel_latched_ = true;
  }
}

bool Campaign::Issuable(const CellState& st) const {
  if (st.phase != CellPhase::kPending) {
    return false;
  }
  // Once cancelled, only cells that already consumed an attempt keep going:
  // the distributed analogue of a local in-flight cell draining its retry
  // budget. Fresh cells stay pending and end up kCancelled.
  return !cancel_latched_ || st.attempt > 0;
}

std::optional<WorkItem> Campaign::NextIssue(uint64_t now_ms) {
  CheckCancelled();
  for (size_t i = 0; i < states_.size(); ++i) {
    CellState& st = states_[i];
    if (!Issuable(st) || now_ms < st.not_before_ms) {
      continue;
    }
    st.phase = CellPhase::kIssued;
    st.deadline_ms = now_ms + options_.lease_timeout_ms;
    ++issued_count_;
    ++stats_.issues;
    WorkItem item;
    item.index = i;
    item.attempt = st.attempt;
    item.issue = st.issue;
    item.job_timeout_ms = options_.job_timeout_ms;
    item.checkpoint_ns = options_.checkpoint_ns;
    item.fingerprint = fingerprints_[i];
    item.spec = jobs_[i];
    return item;
  }
  return std::nullopt;
}

uint64_t Campaign::NextReadyMs() const {
  uint64_t ready = 0;
  for (const CellState& st : states_) {
    if (Issuable(st) && st.not_before_ms != 0 &&
        (ready == 0 || st.not_before_ms < ready)) {
      ready = st.not_before_ms;
    }
  }
  return ready;
}

bool Campaign::ObserveClaim(size_t index, int attempt, uint64_t issue,
                            uint64_t now_ms) {
  CheckCancelled();
  if (index >= states_.size()) {
    ++stats_.stale_claims;
    return false;
  }
  CellState& st = states_[index];
  if (!Issuable(st) || attempt != st.attempt || issue != st.issue) {
    ++stats_.stale_claims;
    return false;
  }
  st.phase = CellPhase::kIssued;
  st.deadline_ms = now_ms + options_.lease_timeout_ms;
  ++issued_count_;
  ++stats_.issues;
  return true;
}

bool Campaign::Renew(size_t index, int attempt, uint64_t issue,
                     uint64_t now_ms) {
  if (index >= states_.size()) {
    return false;
  }
  CellState& st = states_[index];
  if (st.phase != CellPhase::kIssued || st.attempt != attempt ||
      st.issue != issue) {
    return false;
  }
  st.deadline_ms = now_ms + options_.lease_timeout_ms;
  return true;
}

bool Campaign::OnOutcome(size_t index, int attempt, SupervisedOutcome outcome,
                         uint64_t now_ms) {
  if (index >= states_.size()) {
    ++stats_.stale_results;
    return false;
  }
  CellState& st = states_[index];
  // Accept iff undecided and the attempt matches — regardless of which issue
  // delivered it: after a lease expiry, the original (presumed-dead) worker
  // and the re-issued one race the same attempt, and equal (spec, attempt)
  // means equal bytes, so first-in wins and the loser is stale below.
  if (st.phase == CellPhase::kDone || attempt != st.attempt) {
    ++stats_.stale_results;
    return false;
  }
  // attempts is recomputed, not trusted from the wire: attempt indices are
  // global, so this attempt is number attempt + 1.
  outcome.attempts = attempt + 1;
  if (outcome.ok) {
    outcome.failure = JobFailure();
    Decide(index, std::move(outcome));
    return true;
  }
  if (IsRecoverable(outcome.failure.kind) &&
      attempt + 1 < options_.max_attempts) {
    if (st.phase == CellPhase::kIssued) {
      --issued_count_;
    }
    st.phase = CellPhase::kPending;
    st.attempt = attempt + 1;
    st.not_before_ms = now_ms + BackoffMs(options_.backoff_base_ms, st.attempt);
    ++st.issue;
    ++stats_.retries;
    return true;
  }
  if (outcome.failure.reproducer_cmdline.empty()) {
    outcome.failure.reproducer_cmdline = ReproducerCmdline(jobs_[index], attempt);
  }
  outcome.result = JobResult();
  Decide(index, std::move(outcome));
  return true;
}

void Campaign::OnLeaseLost(size_t index, uint64_t issue) {
  if (index >= states_.size()) {
    return;
  }
  CellState& st = states_[index];
  if (st.phase == CellPhase::kDone || st.issue != issue) {
    return;  // a newer lease superseded this one already
  }
  if (st.phase == CellPhase::kIssued) {
    --issued_count_;
  }
  st.phase = CellPhase::kPending;
  ++st.issue;  // the dead tuple can never be claimed again
  ++st.reissues;
  ++stats_.leases_lost;
  if (st.reissues > options_.max_reissues) {
    SupervisedOutcome expired;
    expired.attempts = st.attempt;
    expired.failure.kind = FailureKind::kLeaseExpired;
    expired.failure.message =
        "lease lost " + std::to_string(st.reissues) +
        " times (worker died or stopped renewing); giving up";
    expired.failure.reproducer_cmdline =
        ReproducerCmdline(jobs_[index], st.attempt);
    Decide(index, std::move(expired));
  }
}

void Campaign::ExpireStale(uint64_t now_ms) {
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].phase == CellPhase::kIssued &&
        now_ms > states_[i].deadline_ms) {
      OnLeaseLost(i, states_[i].issue);
    }
  }
}

bool Campaign::Finished() {
  CheckCancelled();
  if (decided_ == states_.size()) {
    return true;
  }
  if (!cancel_latched_ || issued_count_ != 0) {
    return false;
  }
  for (const CellState& st : states_) {
    if (st.phase == CellPhase::kPending && st.attempt > 0) {
      return false;  // a started cell still drains its retry budget
    }
  }
  return true;
}

std::vector<CellOutcome> Campaign::Finish() {
  writer_.Close();
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].phase == CellPhase::kDone) {
      continue;
    }
    CellOutcome& out = outcomes_[i];
    out.failure.kind = FailureKind::kCancelled;
    out.failure.message = "cell never ran (sweep cancelled)";
    out.failure.reproducer_cmdline =
        ReproducerCmdline(jobs_[i], states_[i].attempt);
  }
  return std::move(outcomes_);
}

void Campaign::Decide(size_t index, SupervisedOutcome record) {
  CellState& st = states_[index];
  if (st.phase == CellPhase::kIssued) {
    --issued_count_;
  }
  st.phase = CellPhase::kDone;
  ++decided_;
  if (writer_.is_open()) {
    writer_.Append(fingerprints_[index], jobs_[index], record);
  }
  CellOutcome& out = outcomes_[index];
  out.ok = record.ok;
  out.ran = true;
  out.attempts = record.attempts;
  out.result = std::move(record.result);
  out.failure = std::move(record.failure);
  Report(index);
  if (!out.ok && !options_.keep_going) {
    cancel_latched_ = true;
  }
}

void Campaign::Report(size_t index) {
  ++progress_done_;
  if (progress_ != nullptr) {
    progress_(progress_done_, states_.size(), index);
  }
}

// ---------------------------------------------------------------------------
// Socket serve loop.

namespace {

struct Conn {
  int fd = -1;
  FrameDecoder decoder;
  std::string worker = "?";
  std::vector<std::pair<size_t, uint64_t>> leases;  // (index, issue)
  bool dead = false;
};

void RemoveLease(Conn* conn, size_t index, uint64_t issue) {
  for (size_t i = 0; i < conn->leases.size(); ++i) {
    if (conn->leases[i].first == index && conn->leases[i].second == issue) {
      conn->leases.erase(conn->leases.begin() + static_cast<long>(i));
      return;
    }
  }
}

void HandleFrame(Conn* conn, const std::string& frame, Campaign* campaign) {
  WorkerRequest req;
  std::string parse_error;
  if (!ParseWorkerRequest(frame, &req, &parse_error)) {
    // A garbled peer costs only its own connection: the error reply is
    // best-effort, the drop releases its leases for deterministic re-issue.
    SendFrame(conn->fd, EncodeErrorReply(parse_error));
    conn->dead = true;
    return;
  }
  const uint64_t now = MonotonicMs();
  bool sent = true;
  switch (req.kind) {
    case WorkerRequest::Kind::kClaim: {
      if (!req.worker.empty()) {
        conn->worker = req.worker;
      }
      if (std::optional<WorkItem> item = campaign->NextIssue(now)) {
        conn->leases.emplace_back(item->index, item->issue);
        sent = SendFrame(conn->fd, EncodeCellReply(*item));
      } else {
        sent = SendFrame(conn->fd,
                         EncodeSimpleReply(campaign->Finished()
                                               ? CoordinatorReply::Kind::kDone
                                               : CoordinatorReply::Kind::kRetry));
      }
      break;
    }
    case WorkerRequest::Kind::kRenew: {
      const bool renewed = campaign->Renew(req.index, req.attempt, req.issue, now);
      if (!renewed) {
        RemoveLease(conn, req.index, req.issue);
      }
      sent = SendFrame(conn->fd,
                       EncodeSimpleReply(renewed ? CoordinatorReply::Kind::kOk
                                                 : CoordinatorReply::Kind::kRevoked));
      break;
    }
    case WorkerRequest::Kind::kResult: {
      campaign->OnOutcome(req.index, req.attempt, std::move(req.outcome), now);
      RemoveLease(conn, req.index, req.issue);
      sent = SendFrame(conn->fd, EncodeSimpleReply(CoordinatorReply::Kind::kOk));
      break;
    }
  }
  if (!sent) {
    conn->dead = true;
  }
}

void DropConn(Conn* conn, Campaign* campaign) {
  for (const auto& [index, issue] : conn->leases) {
    campaign->OnLeaseLost(index, issue);
  }
  conn->leases.clear();
  if (conn->fd >= 0) {
    close(conn->fd);
    conn->fd = -1;
  }
}

}  // namespace

std::vector<CellOutcome> ServeSocketCampaign(
    const std::vector<JobSpec>& jobs, const ExecOptions& options,
    uint16_t port, const std::function<void(uint16_t)>& on_listening,
    const std::map<std::string, ManifestEntry>& preloaded,
    const ProgressFn& progress, CampaignStats* stats, std::string* error,
    std::string* manifest_error) {
  uint16_t bound = 0;
  const int lfd = ListenLoopback(port, &bound, error);
  if (lfd < 0) {
    return {};
  }
  fcntl(lfd, F_SETFL, O_NONBLOCK);

  Campaign campaign(jobs, options, preloaded, progress, manifest_error);
  if (on_listening != nullptr) {
    on_listening(bound);
  }

  std::vector<std::unique_ptr<Conn>> conns;
  while (!campaign.Finished()) {
    campaign.ExpireStale(MonotonicMs());

    std::vector<pollfd> fds;
    fds.push_back({lfd, POLLIN, 0});
    for (const auto& conn : conns) {
      fds.push_back({conn->fd, POLLIN, 0});
    }
    const size_t polled_conns = conns.size();
    const int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollTickMs);
    if (rc < 0 && errno != EINTR) {
      break;
    }

    for (size_t c = 0; c < polled_conns; ++c) {
      Conn* conn = conns[c].get();
      const short revents = fds[c + 1].revents;
      if (revents == 0 || conn->dead) {
        continue;
      }
      char buf[16384];
      for (;;) {
        const ssize_t n = read(conn->fd, buf, sizeof(buf));
        if (n > 0) {
          conn->decoder.Feed(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        }
        if (n < 0 && errno == EINTR) {
          continue;
        }
        conn->dead = true;  // EOF or hard error: the worker is gone
        break;
      }
      std::string frame;
      while (!conn->dead && conn->decoder.Next(&frame)) {
        HandleFrame(conn, frame, &campaign);
      }
      if (!conn->dead && conn->decoder.bad()) {
        SendFrame(conn->fd, EncodeErrorReply("garbled frame stream"));
        conn->dead = true;
      }
    }
    for (size_t c = conns.size(); c-- > 0;) {
      if (conns[c]->dead) {
        DropConn(conns[c].get(), &campaign);
        conns.erase(conns.begin() + static_cast<long>(c));
      }
    }

    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int cfd = accept(lfd, nullptr, nullptr);
        if (cfd < 0) {
          break;
        }
        fcntl(cfd, F_SETFL, O_NONBLOCK);
        auto conn = std::make_unique<Conn>();
        conn->fd = cfd;
        conns.push_back(std::move(conn));
      }
    }
  }

  // Campaign decided: closing every connection is the workers' "done" signal
  // (they also get an explicit done reply if they ask first).
  for (const auto& conn : conns) {
    DropConn(conn.get(), &campaign);
  }
  close(lfd);
  if (stats != nullptr) {
    *stats = campaign.stats();
  }
  return campaign.Finish();
}

// ---------------------------------------------------------------------------
// File serve loop.

namespace {

std::string WorkItemLine(const WorkItem& item) {
  std::string line;
  JsonWriter w(&line, 0);
  w.BeginObject();
  WriteWorkItemFields(w, item);
  w.EndObject();
  return line;
}

std::string TupleKey(size_t index, int attempt, uint64_t issue) {
  return std::to_string(index) + "-" + std::to_string(attempt) + "-" +
         std::to_string(issue);
}

int64_t FileAgeMs(const struct stat& st) {
  timespec now;
  clock_gettime(CLOCK_REALTIME, &now);
  return (static_cast<int64_t>(now.tv_sec) -
          static_cast<int64_t>(st.st_mtim.tv_sec)) *
             1000 +
         (static_cast<int64_t>(now.tv_nsec) -
          static_cast<int64_t>(st.st_mtim.tv_nsec)) /
             1'000'000;
}

// Re-reads every results-*.jsonl (tolerant of torn tails) and feeds unseen
// entries into the campaign. `applied` dedupes across scans so stats stay
// meaningful; re-applying would be harmless (stale results are ignored).
void ScanResultsFiles(const std::string& dir,
                      const std::map<std::string, std::vector<size_t>>& by_fp,
                      std::set<std::string>* applied, Campaign* campaign) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return;
  }
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind("results-", 0) != 0 ||
        name.size() < 6 + 8 ||  // "results-" ... ".jsonl"
        name.compare(name.size() - 6, 6, ".jsonl") != 0) {
      continue;
    }
    std::map<std::string, ManifestEntry> entries;
    if (!LoadManifest(dir + "/" + name, &entries, nullptr, nullptr)) {
      continue;
    }
    for (auto& [fp, manifest_entry] : entries) {
      if (manifest_entry.attempts < 1) {
        continue;
      }
      const std::string key = name + "|" + fp + "|" +
                              std::to_string(manifest_entry.attempts) +
                              (manifest_entry.ok ? "+" : "-");
      if (!applied->insert(key).second) {
        continue;
      }
      const auto it = by_fp.find(fp);
      if (it == by_fp.end()) {
        continue;  // foreign fingerprint (stale dir reuse) — ignore
      }
      SupervisedOutcome outcome;
      outcome.ok = manifest_entry.ok;
      outcome.attempts = manifest_entry.attempts;
      outcome.result = std::move(manifest_entry.result);
      outcome.failure = std::move(manifest_entry.failure);
      for (const size_t index : it->second) {
        campaign->OnOutcome(index, manifest_entry.attempts - 1, outcome,
                            MonotonicMs());
      }
    }
  }
  closedir(d);
}

}  // namespace

std::vector<CellOutcome> ServeFileCampaign(
    const std::vector<JobSpec>& jobs, const std::string& dir,
    const ExecOptions& options,
    const std::map<std::string, ManifestEntry>& preloaded,
    const ProgressFn& progress, CampaignStats* stats, std::string* error,
    std::string* manifest_error) {
  if (mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    if (error != nullptr) {
      *error = "cannot create work-queue directory " + dir + ": " +
               std::strerror(errno);
    }
    return {};
  }
  // A stale DONE from a previous campaign in a reused directory would make
  // workers exit before this one starts.
  unlink(DoneFilePath(dir).c_str());

  Campaign campaign(jobs, options, preloaded, progress, manifest_error);

  // Publish the cell list atomically: workers never see a partial file.
  {
    const std::string tmp = CellsFilePath(dir) + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      if (error != nullptr) {
        *error = "cannot write " + tmp + ": " + std::strerror(errno);
      }
      return {};
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
      WorkItem item;
      item.index = i;
      item.job_timeout_ms = options.job_timeout_ms;
      item.checkpoint_ns = options.checkpoint_ns;
      item.fingerprint = campaign.fingerprint(i);
      item.spec = jobs[i];
      const std::string line = WorkItemLine(item);
      std::fwrite(line.data(), 1, line.size(), f);
      std::fputc('\n', f);
    }
    std::fflush(f);
    std::fclose(f);
    if (rename(tmp.c_str(), CellsFilePath(dir).c_str()) != 0) {
      if (error != nullptr) {
        *error = "cannot publish " + CellsFilePath(dir) + ": " +
                 std::strerror(errno);
      }
      return {};
    }
  }

  std::map<std::string, std::vector<size_t>> by_fp;
  for (size_t i = 0; i < jobs.size(); ++i) {
    by_fp[campaign.fingerprint(i)].push_back(i);
  }

  // Restart recovery: tuples already published and cells already resolved by
  // a previous incarnation must not be re-appended.
  std::set<std::string> published;
  {
    std::ifstream in(ReissueFilePath(dir));
    std::string line;
    while (in.is_open() && std::getline(in, line)) {
      JsonValue doc;
      if (JsonValue::Parse(line, &doc, nullptr) && doc.is_object() &&
          doc.Find("index") != nullptr) {
        published.insert(TupleKey(static_cast<size_t>(doc.GetUint("index")),
                                  static_cast<int>(doc.GetInt("attempt")),
                                  doc.GetUint("issue")));
      }
    }
  }
  std::set<size_t> resolved_emitted;
  {
    std::ifstream in(ResolvedFilePath(dir));
    std::string line;
    while (in.is_open() && std::getline(in, line)) {
      JsonValue doc;
      if (JsonValue::Parse(line, &doc, nullptr) && doc.is_object() &&
          doc.Find("index") != nullptr) {
        resolved_emitted.insert(static_cast<size_t>(doc.GetUint("index")));
      }
    }
  }

  std::set<std::string> applied_results;
  const auto emit_resolved = [&] {
    for (size_t i = 0; i < campaign.size(); ++i) {
      if (campaign.phase(i) == Campaign::CellPhase::kDone &&
          resolved_emitted.insert(i).second) {
        std::string line;
        JsonWriter w(&line, 0);
        w.BeginObject();
        w.Field("index", static_cast<uint64_t>(i));
        w.EndObject();
        AppendLine(ResolvedFilePath(dir), line);
      }
    }
  };

  while (!campaign.Finished()) {
    ScanResultsFiles(dir, by_fp, &applied_results, &campaign);
    const uint64_t now = MonotonicMs();
    for (size_t i = 0; i < campaign.size(); ++i) {
      const int attempt = campaign.open_attempt(i);
      const uint64_t issue = campaign.open_issue(i);
      const std::string claim = ClaimFilePath(dir, i, attempt, issue);
      switch (campaign.phase(i)) {
        case Campaign::CellPhase::kPending: {
          if (PathExists(claim + ".expired")) {
            // A previous incarnation revoked this tuple; advance past it.
            campaign.OnLeaseLost(i, issue);
            break;
          }
          if (PathExists(claim)) {
            campaign.ObserveClaim(i, attempt, issue, now);
            break;
          }
          if ((attempt > 0 || issue > 0) && !campaign.BackingOff(i, now) &&
              published.insert(TupleKey(i, attempt, issue)).second) {
            std::string line;
            JsonWriter w(&line, 0);
            w.BeginObject();
            w.Field("index", static_cast<uint64_t>(i));
            w.Field("attempt", attempt);
            w.Field("issue", issue);
            w.EndObject();
            AppendLine(ReissueFilePath(dir), line);
          }
          break;
        }
        case Campaign::CellPhase::kIssued: {
          struct stat st;
          if (::stat(claim.c_str(), &st) != 0) {
            campaign.OnLeaseLost(i, issue);  // claim vanished with its worker
            break;
          }
          if (FileAgeMs(st) >
              static_cast<int64_t>(options.lease_timeout_ms)) {
            // Revoke-then-reissue: the rename makes the dead tuple
            // unclaimable before the replacement tuple is published.
            rename(claim.c_str(), (claim + ".expired").c_str());
            campaign.OnLeaseLost(i, issue);
          }
          break;
        }
        case Campaign::CellPhase::kDone:
          break;
      }
    }
    emit_resolved();
    if (campaign.Finished()) {
      break;
    }
    SleepMs(kFileScanSleepMs);
  }

  emit_resolved();
  if (std::FILE* f = std::fopen(DoneFilePath(dir).c_str(), "w")) {
    std::fclose(f);
  }
  if (stats != nullptr) {
    *stats = campaign.stats();
  }
  return campaign.Finish();
}

}  // namespace memtis
