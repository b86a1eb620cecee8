#include "llm/serving_engine.h"

#include <algorithm>

#include "common/tensor.h"

namespace opal {

namespace {

// Logits of row j of a model pass that fed `rows` rows: the chunk buffer's
// row, or for the last row (the only row of a single-token step) the
// state's frontier logits — after a chunk, a bitwise copy of that row.
std::span<const float> row_logits(const SequenceState& state,
                                  std::size_t rows, std::size_t j) {
  return j + 1 == rows ? state.logits() : state.chunk_logits_row(j);
}

}  // namespace

std::string to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kQueued:
      return "queued";
    case RequestStatus::kRunning:
      return "running";
    case RequestStatus::kFinished:
      return "finished";
    case RequestStatus::kEvicted:
      return "evicted";
  }
  return "?";
}

ServingEngine::ServingEngine(std::shared_ptr<const PreparedModel> model,
                             ServingConfig config)
    : model_(std::move(model)), config_(std::move(config)) {
  require(model_ != nullptr, "ServingEngine: null model");
  require(config_.max_batch >= 1, "ServingEngine: max_batch must be >= 1");
  require(config_.prefill_chunk_tokens >= 1,
          "ServingEngine: prefill_chunk_tokens must be >= 1");
  scheduler_ = config_.scheduler != nullptr
                   ? config_.scheduler
                   : std::make_shared<FifoScheduler>();
  if (config_.n_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.n_threads);
  }
  const auto& mcfg = model_->model_config();
  const auto& ecfg = model_->config();
  if (config_.kv_pool != nullptr) {
    kv_pool_ = config_.kv_pool;
    require(kv_pool_->d_model() == mcfg.d_model &&
                kv_pool_->block_size() == ecfg.kv_block_size &&
                kv_pool_->mode() == ecfg.kv_mode,
            "ServingEngine: shared pool does not match the model's KV config");
  } else {
    // Private pool: dense-equivalent capacity by default (max_batch full
    // sequences), or the caller's explicit block budget.
    std::size_t blocks = config_.kv_pool_blocks != 0
                             ? config_.kv_pool_blocks
                             : config_.max_batch *
                                   model_->kv_blocks_per_sequence();
    // Below one block column no sequence could ever start.
    blocks = std::max(
        blocks, PagedKvCache::blocks_for(mcfg.n_layers, 1,
                                         ecfg.kv_block_size));
    kv_pool_ = std::make_shared<KvBlockPool>(blocks, ecfg.kv_block_size,
                                             mcfg.d_model, ecfg.kv_mode);
  }
  require(kv_pool_->n_blocks() >=
              PagedKvCache::blocks_for(mcfg.n_layers, 1, ecfg.kv_block_size),
          "ServingEngine: pool smaller than one block column");
  if (config_.enable_prefix_cache) {
    prefix_cache_ =
        std::make_unique<PrefixCache>(model_->make_prefix_cache(*kv_pool_));
    // Let siblings on a shared pool pull this engine's unreferenced cached
    // blocks under pressure instead of stalling on them.
    kv_pool_->register_reclaimer(this, [this](std::size_t min_blocks) {
      return reclaim_cached(min_blocks);
    });
  }
  // Observability (see the header's Observability block): register the
  // engine's series once and cache the handles; bind every composed
  // subsystem into the same registry. None of it is ever read back by a
  // control path.
  trace_ = Tracer(config_.trace, config_.trace_capacity);
  // Self-description for the step-trace header: enough to rebuild the
  // model + KV layout, making the exported trace replayable offline
  // (accel/replay.h) without this process.
  trace_.set_step_info({mcfg.n_layers, mcfg.d_model, mcfg.n_heads,
                        mcfg.d_ffn, mcfg.vocab, to_string(ecfg.kv_mode),
                        ecfg.kv_block_size,
                        kv_bits_per_entry(ecfg.kv_mode)});
  em_.steps = &registry_.counter("serving.steps");
  em_.stalls = &registry_.counter("serving.stalls");
  em_.admissions = &registry_.counter("serving.admissions");
  em_.preemptions = &registry_.counter("serving.preemptions");
  em_.evictions = &registry_.counter("serving.evictions");
  em_.finished = &registry_.counter("serving.finished");
  em_.budget_shrinks = &registry_.counter("serving.budget_shrinks");
  em_.tokens_decoded = &registry_.counter("serving.tokens_decoded");
  em_.rows_committed = &registry_.counter("serving.rows_committed");
  em_.spec_bursts = &registry_.counter("serving.spec_bursts");
  em_.spec_drafted = &registry_.counter("serving.spec_drafted");
  em_.spec_accepted = &registry_.counter("serving.spec_accepted");
  em_.spec_rejected = &registry_.counter("serving.spec_rejected");
  em_.running = &registry_.gauge("serving.running");
  em_.queued = &registry_.gauge("serving.queued");
  em_.queue_wait_ms = &registry_.histogram("serving.queue_wait_ms");
  em_.ttft_ms = &registry_.histogram("serving.ttft_ms");
  em_.itl_ms = &registry_.histogram("serving.itl_ms");
  em_.step_ms = &registry_.histogram("serving.step_ms");
  em_.decode_ms = &registry_.histogram("serving.decode_ms");
  em_.prefill_chunk_ms = &registry_.histogram("serving.prefill_chunk_ms");
  em_.spec_verify_ms = &registry_.histogram("serving.spec_verify_ms");
  scheduler_->bind_metrics(registry_);
  kv_pool_->bind_metrics(registry_);
  if (prefix_cache_ != nullptr) prefix_cache_->bind_metrics(registry_);
  // Kernel/layer profiling: installs the timing wrapper over the dispatch
  // table for this engine's lifetime and registers the profile.* counters.
  // Off (the common case) none of this happens — the dispatch table and the
  // registry shape are exactly the silent engine's.
  profiling_ = config_.profile || KernelProfiler::env_enabled();
  if (profiling_) {
    KernelProfiler::enable();
    for (std::size_t k = 0; k < kKernelKindCount; ++k) {
      const std::string base =
          "profile.kernel." + to_string(static_cast<KernelKind>(k));
      pm_.kernel_calls[k] = &registry_.counter(base + ".calls");
      pm_.kernel_elems[k] = &registry_.counter(base + ".elems");
      pm_.kernel_ns[k] = &registry_.counter(base + ".ns");
    }
    for (std::size_t p = 0; p < kLayerPhaseCount; ++p) {
      const std::string base =
          "profile.phase." + to_string(static_cast<LayerPhase>(p));
      pm_.phase_calls[p] = &registry_.counter(base + ".calls");
      pm_.phase_ns[p] = &registry_.counter(base + ".ns");
    }
  }
  // KV bytes one fed row writes: K and V, every layer, at the mode's width.
  kv_row_bytes_ =
      2 * mcfg.n_layers * mcfg.d_model * kv_bits_per_entry(ecfg.kv_mode) / 8;
}

ServingEngine::ServingEngine(const PreparedModel& model, ServingConfig config)
    : ServingEngine(
          std::shared_ptr<const PreparedModel>(&model,
                                               [](const PreparedModel*) {}),
          std::move(config)) {}

ServingEngine::~ServingEngine() {
  if (profiling_) KernelProfiler::disable();
  if (prefix_cache_ != nullptr) kv_pool_->unregister_reclaimer(this);
  // A shared pool/scheduler can outlive this engine's registry: sever
  // their bindings (no-ops when a sibling engine bound after us).
  kv_pool_->unbind_metrics(registry_);
  scheduler_->unbind_metrics(registry_);
}

RequestId ServingEngine::submit(Request request) {
  require(!request.prompt.empty(), "ServingEngine::submit: empty prompt");
  // Validate up front: a token that threw mid-decode would leave the other
  // sequences of that step with advanced KV caches but un-advanced `fed`
  // counters. Generated tokens are argmax indices and are always in range.
  const std::size_t vocab = model_->model_config().vocab;
  for (const std::size_t token : request.prompt) {
    require(token < vocab, "ServingEngine::submit: prompt token out of range");
  }
  Sequence seq;
  seq.id = next_id_++;
  seq.priority = request.priority;
  seq.submit_step = step_counter_;
  seq.submit_tp = std::chrono::steady_clock::now();
  seq.result.status = RequestStatus::kQueued;
  seq.result.tokens = std::move(request.prompt);
  seq.result.prompt_len = seq.result.tokens.size();
  seq.target_len = seq.result.prompt_len +
                   resolve_max_new(request.sampling, request.max_new_tokens);
  seq.sampling = std::move(request.sampling);
  // One sampler per request, consulted only from the serial bookkeeping
  // phase. With the log2 softmax unit active, sampling probabilities run
  // through the same unit (see sampler.h).
  const auto& ecfg = model_->config();
  seq.sampler =
      make_sampler(seq.sampling, ecfg.log2_softmax ? ecfg.softmax_bits : 0);
  // One drafter per request, like the sampler: consulted only from the
  // serial planning phase, so stateful drafters need no synchronization.
  if (config_.speculative.enabled()) {
    seq.drafter = make_drafter(config_.speculative);
    // Per-request drafters share one engine's drafter.* counters.
    if (seq.drafter != nullptr) seq.drafter->bind_metrics(registry_);
  }
  // The RNG stream starts at draw 0 of the request's seed; the checkpoint
  // is moved into the SequenceState at admission and back here whenever the
  // KV is fully released (see Sequence::sampler_ckpt).
  seq.sampler_ckpt.rng = CounterRng(seq.sampling.seed);
  ++prio_stats_[seq.priority].submitted;
  trace_.emit({.kind = TraceEventKind::kEnqueue,
               .step = step_counter_,
               .request = seq.id,
               .a = seq.result.prompt_len,
               .b = seq.target_len,
               .c = static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(seq.priority))});
  const RequestId id = seq.id;
  queue_.push_back(std::move(seq));
  em_.queued->set(static_cast<double>(queue_.size()));
  return id;
}

template <typename Container>
std::span<const SchedRequest> ServingEngine::sched_views(
    const Container& container) {
  views_.clear();
  for (const Sequence& seq : container) {
    SchedRequest view;
    view.id = seq.id;
    view.priority = seq.priority;
    view.prompt_len = seq.result.prompt_len;
    view.target_len = seq.target_len;
    view.fed = seq.fed;
    view.known = seq.result.tokens.size() - seq.fed;
    view.tokens_served = seq.tokens_served;
    view.submit_step = seq.submit_step;
    views_.push_back(view);
  }
  return views_;
}

std::size_t ServingEngine::blocks_needed(const Sequence& seq) const {
  // A sequence preempted with a kept prefix still owns its blocks and may
  // need none; a fresh (or fully released) sequence needs one block column.
  if (seq.state != nullptr) return seq.state->blocks_needed_for_next();
  return PagedKvCache::blocks_for(model_->model_config().n_layers, 1,
                                  model_->config().kv_block_size);
}

std::size_t ServingEngine::reclaim_cached(std::size_t min_blocks) {
  return prefix_cache_ != nullptr ? prefix_cache_->reclaim(min_blocks) : 0;
}

bool ServingEngine::ensure_free_blocks(std::size_t target) {
  if (kv_pool_->free_blocks() >= target) return true;
  if (prefix_cache_ != nullptr) {
    // Unreferenced cached prefixes are free capacity in waiting: reclaim
    // LRU entries before letting pressure disturb any sequence.
    prefix_cache_->reclaim(target - kv_pool_->free_blocks());
    if (kv_pool_->free_blocks() >= target) return true;
  }
  // Sibling engines' unreferenced cached blocks on a shared pool are free
  // capacity too: ask them to let go before this engine preempts or stalls
  // (no-op on a private pool — nobody else is registered).
  kv_pool_->request_reclaim(target - kv_pool_->free_blocks(), this);
  return kv_pool_->free_blocks() >= target;
}

void ServingEngine::restore_cached_prefix(Sequence& seq) {
  if (prefix_cache_ == nullptr) return;
  // Cap the restore one short of the known tokens AND of max_seq_len: the
  // final token's decode produces the logits generation extends from,
  // completion bookkeeping needs at least one decode per admission, and a
  // request destined for KV exhaustion must still decode (and retire) the
  // same way a cache-off run does.
  const auto& tokens = seq.result.tokens;
  const std::size_t cap =
      std::min(tokens.size(), model_->config().max_seq_len) - 1;
  const auto match = prefix_cache_->lookup(tokens, cap);
  if (match.positions == 0) return;
  seq.state->adopt_prefix(match.columns, match.positions);
  seq.fed = match.positions;  // prefill skips the restored positions
  trace_.emit({.kind = TraceEventKind::kPrefixHit,
               .step = step_counter_,
               .request = seq.id,
               .a = match.positions,
               .b = match.columns.size()});
}

void ServingEngine::maybe_cache_prefix(const Sequence& seq) {
  if (prefix_cache_ == nullptr || seq.state == nullptr) return;
  const PagedKvCache* cache = seq.state->paged_cache();
  if (cache == nullptr) return;
  const std::size_t bs = model_->config().kv_block_size;
  // Full columns only, capped at the canonical watermark: columns at or
  // past a quantized mid-block truncation would index KV that is not a
  // pure function of the token prefix (see Sequence::non_canonical_from).
  const std::size_t aligned =
      std::min((seq.fed / bs) * bs, seq.non_canonical_from);
  if (aligned == 0) return;
  prefix_cache_->insert(seq.result.tokens, aligned, *cache);
}

void ServingEngine::release_sequence_kv(Sequence& seq) {
  maybe_cache_prefix(seq);
  // Checkpoint the RNG stream before the state carrying it is destroyed:
  // readmission restores it, so replayed generation resumes at the exact
  // draw (replayed tokens are known tokens and consume none).
  if (seq.state != nullptr) seq.sampler_ckpt = seq.state->sampler_state();
  seq.state.reset();
  seq.fed = 0;
  // Full recompute replays from scratch, so the rebuilt KV is canonical.
  seq.non_canonical_from = Sequence::kCanonical;
}

void ServingEngine::admit_from_queue() {
  for (;;) {
    // Blocks the current batch will take on its next advance: admission
    // must leave room for them, or the pressure loop would immediately
    // preempt the sequence we just admitted.
    std::size_t planned = 0;
    for (const auto& seq : batch_) planned += blocks_needed(seq);
    while (batch_.size() < config_.max_batch && !queue_.empty()) {
      blocked_.clear();
      std::size_t pick = scheduler_->pick_admission(sched_views(queue_));
      bool admitted = false;
      while (pick != Scheduler::kNone) {
        require(pick < queue_.size(),
                "ServingEngine: scheduler picked an out-of-range admission");
        require(!std::binary_search(blocked_.begin(), blocked_.end(), pick),
                "ServingEngine: scheduler re-offered a blocked admission");
        Sequence& head = queue_[pick];
        // Restore the candidate's cached prefix BEFORE checking capacity:
        // adoption consumes no free blocks, and its references protect the
        // matched entries from the reclaim pass below (which would
        // otherwise evict the very prefix this request is about to reuse).
        // If admission then blocks, the candidate just waits in the queue
        // holding its prefix — reclaim_queued_prefix downgrades it under
        // extreme pressure.
        if (head.state == nullptr) {
          head.state = std::make_unique<SequenceState>(
              model_->make_sequence(*kv_pool_));
          // Resume the request's RNG stream at its checkpoint (draw 0 for
          // a fresh request, the exact mid-stream draw after preemption).
          head.state->sampler_state() = head.sampler_ckpt;
          restore_cached_prefix(head);
        } else if (head.downgraded && head.state->blocks_held() == 0) {
          // A downgraded candidate whose adoption was dropped on an
          // earlier failed attempt: retry the restore — the entries may
          // still be cached, and adoption consumes no free blocks.
          restore_cached_prefix(head);
        }
        std::size_t need = blocks_needed(head);
        bool ok = ensure_free_blocks(planned + need);
        if (!ok && head.downgraded && head.fed != 0) {
          // A downgraded candidate must not hold its re-adoption through
          // the failure: it would shield the very entries the reclaim pass
          // above needed and recreate the exact shortfall its downgrade
          // resolved, forever. Drop the adoption and retry once with those
          // entries reclaimable.
          head.state->reset();
          head.fed = 0;
          need = blocks_needed(head);
          ok = ensure_free_blocks(planned + need);
        }
        if (ok) {
          planned += need;
          Sequence seq = std::move(queue_[pick]);
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
          seq.downgraded = false;
          seq.spec_drafts.clear();  // a pre-preemption burst is stale
          seq.result.status = RequestStatus::kRunning;
          batch_.push_back(std::move(seq));
          em_.admissions->add();
          const Sequence& adm = batch_.back();
          trace_.emit({.kind = TraceEventKind::kAdmit,
                       .step = step_counter_,
                       .request = adm.id,
                       .a = step_counter_ - adm.submit_step,
                       .b = adm.fed,
                       .c = adm.state->blocks_held()});
          admitted = true;
          break;
        }
        // Memory-blocked candidate: it keeps its queue position and any
        // adopted prefix (retried first next step), but the policy may
        // offer the NEXT admissible candidate so a small request admits
        // around it. The default — and FIFO, whose bitwise contract is
        // strict arrival order — returns kNone: head-of-line blocking.
        blocked_.push_back(pick);
        std::sort(blocked_.begin(), blocked_.end());
        if (blocked_.size() >= queue_.size()) break;
        pick = scheduler_->pick_admission_blocked(sched_views(queue_),
                                                  blocked_);
      }
      if (!admitted) break;  // nothing admissible this step
    }
    if (!batch_.empty() || queue_.empty()) return;
    // Nothing is running yet no candidate can start: queued sequences
    // keeping preempted prefixes hold the blocks. Downgrade the youngest
    // holder to full recompute (so a startable candidate always exists
    // against a private pool) and retry.
    if (!reclaim_queued_prefix()) return;  // blocks are held outside us
  }
}

bool ServingEngine::reclaim_queued_prefix() {
  for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
    if (it->state != nullptr && it->state->blocks_held() > 0) {
      it->downgraded = true;  // must not hold a re-adoption through failure
      const std::size_t fed_before = it->fed;
      release_sequence_kv(*it);
      em_.preemptions->add();
      trace_.emit({.kind = TraceEventKind::kPreempt,
                   .step = step_counter_,
                   .request = it->id,
                   .b = fed_before});
      return true;
    }
  }
  return false;
}

bool ServingEngine::ensure_kv_capacity(std::vector<std::size_t>& budgets) {
  for (;;) {
    std::size_t need = 0;
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      need += batch_[i].state->blocks_needed_for(budgets[i]);
    }
    // Reclaims LRU cached prefixes first (ours, then siblings'): the prefix
    // cache never costs a running sequence its blocks. True covers the
    // empty batch too.
    if (ensure_free_blocks(need)) return true;
    // A chunk is a luxury, a running sequence is a commitment: shrink the
    // widest budget to single-token stepping (ties to the highest slot,
    // the youngest) before disturbing anyone. Single-token budgets are the
    // invariant admission guaranteed blocks for.
    std::size_t widest = Scheduler::kNone;
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      if (budgets[i] > 1 &&
          (widest == Scheduler::kNone || budgets[i] >= budgets[widest])) {
        widest = i;
      }
    }
    if (widest != Scheduler::kNone) {
      em_.budget_shrinks->add();
      trace_.emit({.kind = TraceEventKind::kBudgetShrink,
                   .step = step_counter_,
                   .request = batch_[widest].id,
                   .a = budgets[widest],
                   .b = 1});
      budgets[widest] = 1;
      continue;
    }
    if (batch_.size() == 1) {
      // No running sequence left to preempt: first reclaim kept prefixes
      // of queued (manually preempted) sequences — they replay anyway.
      if (reclaim_queued_prefix()) continue;
      // If another engine on a shared pool holds the missing blocks, the
      // shortfall is transient — stall this step instead of destroying
      // the sequence; they free up as the other engine retires work.
      // (Reclaimable cache entries anywhere on the pool are already gone:
      // ensure_free_blocks drained ours and every sibling's, so whatever
      // survives is held by live sequences.)
      // Count distinct blocks: with prefix sharing the same physical
      // block can sit in several of our sequences' tables, and summing
      // blocks_held() would inflate `ours` past blocks_in_use() and
      // misread a sibling engine's transient hold as an unservable pool.
      std::vector<KvBlockPool::BlockId> held;
      if (const PagedKvCache* cache = batch_.front().state->paged_cache()) {
        cache->append_held_block_ids(held);
      }
      for (const auto& seq : queue_) {
        if (seq.state == nullptr) continue;
        if (const PagedKvCache* cache = seq.state->paged_cache()) {
          cache->append_held_block_ids(held);
        }
      }
      std::sort(held.begin(), held.end());
      const std::size_t ours = static_cast<std::size_t>(
          std::unique(held.begin(), held.end()) - held.begin());
      if (kv_pool_->blocks_in_use() > ours) return false;
      // The pool itself is too small for this sequence: retire it as
      // kEvicted (forward-progress guarantee for private pools).
      finish(std::move(batch_.front()), RequestStatus::kEvicted);
      batch_.clear();
      admit_from_queue();
      // Pressure admissions restart at the single-token invariant; chunks
      // resume next step once the scheduler re-plans.
      budgets.assign(batch_.size(), 1);
      continue;
    }
    // Recompute preemption of the scheduler's victim: cache its full block
    // columns (replay then restores them as a prefix hit, and the reclaim
    // above frees them LRU-first if pressure persists), then requeue at
    // the front so it reclaims a slot as soon as memory frees up (the
    // scheduler still chooses whether something else jumps it).
    const std::size_t pick = scheduler_->pick_victim(sched_views(batch_));
    require(pick < batch_.size(),
            "ServingEngine: scheduler picked an out-of-range victim");
    Sequence victim = std::move(batch_[pick]);
    batch_.erase(batch_.begin() + static_cast<std::ptrdiff_t>(pick));
    budgets.erase(budgets.begin() + static_cast<std::ptrdiff_t>(pick));
    const std::size_t fed_before = victim.fed;
    release_sequence_kv(victim);
    victim.result.status = RequestStatus::kQueued;
    em_.preemptions->add();
    trace_.emit({.kind = TraceEventKind::kPreempt,
                 .step = step_counter_,
                 .request = victim.id,
                 .b = fed_before});
    queue_.push_front(std::move(victim));
  }
}

void ServingEngine::finish(Sequence&& seq, RequestStatus status) {
  seq.result.status = status;
  // Index the retiring sequence's prefix before its blocks go back to the
  // pool: the next request sharing the prompt skips that prefill.
  maybe_cache_prefix(seq);
  seq.state.reset();  // unshared blocks return to the pool immediately
  if (status == RequestStatus::kEvicted) {
    ++prio_stats_[seq.priority].evicted;
    em_.evictions->add();
    trace_.emit({.kind = TraceEventKind::kEvict,
                 .step = step_counter_,
                 .request = seq.id,
                 .a = seq.result.generated()});
  } else {
    ++prio_stats_[seq.priority].finished;
    ++finish_counts_[seq.result.finish_reason];
    em_.finished->add();
    trace_.emit({.kind = TraceEventKind::kFinish,
                 .step = step_counter_,
                 .request = seq.id,
                 .a = seq.result.generated(),
                 .b = static_cast<std::uint64_t>(seq.result.finish_reason)});
  }
  scheduler_->on_retired(seq.id);
  done_.emplace(seq.id, std::move(seq.result));
}

ServingEngine::Sequence* ServingEngine::find_running(RequestId id) {
  for (auto& seq : batch_) {
    if (seq.id == id) return &seq;
  }
  return nullptr;
}

void ServingEngine::preempt(RequestId id, std::size_t keep_positions) {
  Sequence* seq = find_running(id);
  require(seq != nullptr, "ServingEngine::preempt: request is not running");
  const std::size_t fed_before = seq->fed;
  if (keep_positions == 0) {
    // Full preemption releases every KV block (the point of preempting
    // under memory pressure); the full columns are indexed first so a
    // replay restores them as a prefix hit, and readmission recreates the
    // state.
    release_sequence_kv(*seq);
  } else {
    // Index the full columns before truncating: blocks the truncate below
    // releases stay reclaimable instead of vanishing. The columns indexed
    // here predate the truncation, so they are canonical in every mode.
    maybe_cache_prefix(*seq);
    seq->state->truncate(keep_positions);  // throws if keep > position
    const std::size_t bs = model_->config().kv_block_size;
    if (keep_positions % bs != 0) {
      if (model_->config().kv_mode != KvQuantMode::kFp32) {
        // The partially-kept boundary block retains the grow-only scale
        // its discarded rows produced, so everything re-decoded from this
        // block on is no longer the pure function of the token prefix the
        // cache requires — fence it off from future indexing.
        seq->non_canonical_from =
            std::min(seq->non_canonical_from, (keep_positions / bs) * bs);
      }
    } else if (keep_positions <= seq->non_canonical_from) {
      // A block-aligned truncate at or below the watermark discards every
      // tainted block; the replay from here reads only canonical rows, so
      // the sequence is a pure function of the token prefix again.
      seq->non_canonical_from = Sequence::kCanonical;
    }
  }
  seq->fed = keep_positions;  // replay the rest on readmission
  seq->result.status = RequestStatus::kQueued;
  em_.preemptions->add();
  trace_.emit({.kind = TraceEventKind::kPreempt,
               .step = step_counter_,
               .request = seq->id,
               .a = keep_positions,
               .b = fed_before});
  const std::ptrdiff_t index = seq - batch_.data();
  queue_.push_back(std::move(*seq));
  batch_.erase(batch_.begin() + index);
}

std::size_t ServingEngine::step() {
  ++step_counter_;
  em_.steps->add();
  const std::uint64_t step_t0_us = trace_.now_us();
  admit_from_queue();

  // Retire completed sequences a prior step could not retire (its observer
  // threw after bookkeeping), and evict sequences whose KV cache is
  // exhausted; freed slots refill from the queue within the same step
  // (continuous batching).
  for (;;) {
    bool removed = false;
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      const bool was_done = batch_[i].done;
      const bool exhausted =
          batch_[i].state->position() >= batch_[i].state->max_seq_len();
      if (was_done || exhausted) {
        finish(std::move(batch_[i]), was_done ? RequestStatus::kFinished
                                              : RequestStatus::kEvicted);
        batch_.erase(batch_.begin() + static_cast<std::ptrdiff_t>(i));
        removed = true;
        break;
      }
    }
    if (!removed) break;
    admit_from_queue();
  }

  // Budget planning: the scheduler proposes per-sequence token counts; the
  // engine clamps each to the tokens actually known, the configured chunk
  // width, and the sequence's remaining KV space. Everything is >= 1, so
  // every running sequence advances.
  budgets_.assign(batch_.size(), 1);
  if (!batch_.empty()) {
    scheduler_->plan_budgets(sched_views(batch_), budgets_,
                             config_.prefill_chunk_tokens);
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      const Sequence& seq = batch_[i];
      const std::size_t known = seq.result.tokens.size() - seq.fed;
      const std::size_t space =
          seq.state->max_seq_len() - seq.state->position();
      const std::size_t cap =
          std::min({known, space, config_.prefill_chunk_tokens});
      budgets_[i] = std::clamp<std::size_t>(budgets_[i], 1, cap);
    }
    // Speculative burst planning: a sequence at its generation frontier
    // (exactly one known, unfed token and generation remaining) may widen
    // its budget to a verify burst [frontier, d1..dk]. k is clamped so the
    // burst can neither out-generate the request (each fed row commits at
    // most one token) nor outgrow the KV cache; drafts are truncated at
    // the first out-of-vocab token (a garbage drafter must not throw from
    // the parallel decode phase). The widened budget flows through
    // ensure_kv_capacity like any chunk, so all 1+k rows are block-reserved
    // up front and pressure shrinks the burst back to a plain step.
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      Sequence& seq = batch_[i];
      seq.spec_drafts.clear();
      if (seq.drafter == nullptr) continue;
      if (seq.result.tokens.size() - seq.fed != 1 ||
          seq.result.tokens.size() >= seq.target_len) {
        continue;
      }
      const std::size_t space =
          seq.state->max_seq_len() - seq.state->position();
      const std::size_t remaining =
          seq.target_len - seq.result.tokens.size();
      const std::size_t k = std::min({config_.speculative.draft_tokens,
                                      remaining - 1, space - 1});
      if (k == 0) continue;
      seq.spec_drafts.push_back(seq.result.tokens[seq.fed]);  // frontier
      seq.drafter->draft(seq.result.tokens, k, seq.spec_drafts);
      const std::size_t vocab = model_->model_config().vocab;
      std::size_t valid = 1;
      while (valid < std::min(seq.spec_drafts.size(), 1 + k) &&
             seq.spec_drafts[valid] < vocab) {
        ++valid;
      }
      seq.spec_drafts.resize(valid);
      if (seq.spec_drafts.size() == 1) {
        seq.spec_drafts.clear();  // nothing proposed: plain decode
        continue;
      }
      budgets_[i] = seq.spec_drafts.size();
    }
  }

  // Memory pressure: make sure the pool covers every running sequence's
  // planned budget, shrinking budgets then preempting (then, for a lone
  // sequence, evicting) first. A false return means a shared pool's blocks
  // are transiently held by another engine — stall this step rather than
  // decode into exhaustion.
  if (!ensure_kv_capacity(budgets_)) {
    em_.stalls->add();
    em_.running->set(static_cast<double>(batch_.size()));
    em_.queued->set(static_cast<double>(queue_.size()));
    return 0;
  }
  if (batch_.empty()) {
    em_.running->set(0.0);
    em_.queued->set(static_cast<double>(queue_.size()));
    return 0;
  }

  // Serial reservation phase: all pool allocation for this step happens
  // here, so the parallel decode below never mutates shared pool state.
  // Speculative bursts also open their rollback capture here — after
  // reserve_for's copy-on-write, the boundary block is exclusively owned,
  // which snapshot restore requires.
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    batch_[i].state->reserve_for(budgets_[i]);
    if (budgets_[i] > 1 && !batch_[i].spec_drafts.empty()) {
      batch_[i].state->begin_spec_capture(budgets_[i]);
    }
  }
  decode_end_us_.resize(batch_.size());
  decode_dur_us_.resize(batch_.size());
  if (profiling_) {
    // Per-slot profiling scratch, cleared in place (capacity is retained,
    // so steady-state steps allocate nothing).
    profile_slots_.resize(batch_.size());
    for (KernelProfile& slot : profile_slots_) slot.clear();
  }

  // Parallel phase: decode each sequence's budget — one token through
  // step(), a multi-token chunk through prefill_chunk() (bitwise identical
  // to that many single steps). A speculative burst feeds its planned
  // [frontier, drafts...] list the same way; a burst whose budget pressure
  // shrank to 1 feeds spec_drafts[0] == tokens[fed] — the plain step.
  // Disjoint SequenceStates against a const PreparedModel — safe and
  // bitwise order-independent.
  auto decode_one = [this](std::size_t i) {
    Sequence& seq = batch_[i];
    const std::size_t n = budgets_[i];
    // Per-slot timing into disjoint scratch slots: the registry itself is
    // only touched later, on the serial phase. Profiling samples follow the
    // same discipline: this thread's slot scratch is bound for exactly the
    // model pass, merged serially below.
    if (profiling_) KernelProfiler::bind_slot(&profile_slots_[i]);
    const std::uint64_t t0 = trace_.now_us();
    if (!seq.spec_drafts.empty() && n > 1) {
      model_->prefill_chunk(
          *seq.state, std::span<const std::size_t>(seq.spec_drafts).first(n));
    } else if (n == 1) {
      model_->step(*seq.state, seq.result.tokens[seq.fed]);
    } else {
      model_->prefill_chunk(
          *seq.state,
          std::span<const std::size_t>(seq.result.tokens).subspan(seq.fed, n));
    }
    decode_end_us_[i] = trace_.now_us();
    decode_dur_us_[i] = decode_end_us_[i] - t0;
    if (profiling_) KernelProfiler::bind_slot(nullptr);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(batch_.size(), decode_one);
  } else {
    for (std::size_t i = 0; i < batch_.size(); ++i) decode_one(i);
  }
  if (profiling_) {
    // Serial merge of the fan-out's per-slot samples: the run total and the
    // profile.* counters advance only here, never off the serial phase.
    for (const KernelProfile& slot : profile_slots_) {
      profile_total_.merge(slot);
      for (std::size_t k = 0; k < kKernelKindCount; ++k) {
        pm_.kernel_calls[k]->add(slot.kernels[k].calls);
        pm_.kernel_elems[k]->add(slot.kernels[k].elems);
        pm_.kernel_ns[k]->add(slot.kernels[k].ns);
      }
      for (std::size_t p = 0; p < kLayerPhaseCount; ++p) {
        pm_.phase_calls[p]->add(slot.phases[p].calls);
        pm_.phase_ns[p]->add(slot.phases[p].ns);
      }
    }
  }

  // Serial bookkeeping, in slot order: advance fed counters and extend with
  // sampled tokens. This runs to completion for the whole batch before any
  // observer fires, so a throwing observer can never leave a sequence's fed
  // counter out of sync with its already-advanced KV cache.
  const std::size_t decoded = batch_.size();
  // One wall-clock anchor for the whole serial phase: queue-wait/TTFT/ITL
  // are request-level latencies, for which per-slot resolution is noise.
  const auto now_tp = std::chrono::steady_clock::now();
  const auto to_ms = [](std::chrono::steady_clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  std::size_t rows_fed_total = 0;
  fed_pos_.resize(decoded);
  if (emitted_.size() < decoded) emitted_.resize(decoded);
  for (std::size_t i = 0; i < decoded; ++i) emitted_[i].clear();
  for (std::size_t i = 0; i < decoded; ++i) {
    Sequence& seq = batch_[i];
    const std::size_t n = budgets_[i];
    const bool spec = !seq.spec_drafts.empty() && n > 1;
    fed_pos_[i] = seq.fed;  // first position fed this step
    em_.tokens_decoded->add(n);  // rows executed, incl. rejected verify rows
    rows_fed_total += n;
    auto& prio = prio_stats_[seq.priority];
    if (!seq.wait_counted) {
      seq.wait_counted = true;
      prio.queue_wait_steps +=
          static_cast<std::size_t>(step_counter_ - seq.submit_step - 1);
      ++prio.first_decodes;
      em_.queue_wait_ms->observe(to_ms(now_tp - seq.submit_tp));
    }
    // Commit walk over the rows this pass fed. Row j's logits are bitwise
    // what a plain step at that position produces. Row j samples exactly
    // when its next token is unknown — the frontier row of a pass that
    // reached it, or each row of a verify burst — through the request's own
    // sampler, so the RNG stream advances once per generated token, ever
    // (prompt and replayed rows never draw). The walk goes on past a sampled
    // row only while the sample equals the next fed token (a verify burst's
    // draft) and ends at a stop condition or the last row; rows it did not
    // reach roll back bitwise below. A prompt chunk thus samples only on
    // its last row, and every committed token IS the non-speculative
    // stream's token.
    std::vector<std::size_t>& tokens = seq.result.tokens;
    std::size_t kept = 0;
    while (kept < n) {
      const std::size_t j = kept++;
      if (seq.fed + j + 1 != tokens.size() ||
          tokens.size() >= seq.target_len) {
        continue;  // next token known, or nothing left to generate
      }
      const std::size_t next = seq.sampler->sample(
          row_logits(*seq.state, n, j), tokens, seq.state->sampler_state());
      tokens.push_back(next);
      EmittedTok tok;
      tok.token = next;
      tok.row = j;
      tok.speculative = spec;
      tok.draft_hit = spec && j + 1 < n && next == seq.spec_drafts[j + 1];
      emitted_[i].push_back(tok);
      // Stop conditions (eos / stop token / stop sequence / budget). The
      // final generated token is pure output either way — feeding it would
      // spend a KV slot and a forward pass on logits nobody reads.
      seq.result.finish_reason = check_stop(seq.sampling, tokens,
                                            seq.result.prompt_len,
                                            seq.target_len);
      if (seq.result.finish_reason != FinishReason::kNone) {
        seq.done = true;
        break;
      }
      if (!tok.draft_hit) break;
    }
    if (kept < n) {
      // Rejected suffix of a verify burst: rewind the KV to the kept rows —
      // bitwise, so the kept prefix stays canonical (prefix-cacheable, and
      // no non_canonical_from watermark is spent).
      seq.state->spec_rollback(seq.fed + kept);
    } else if (spec) {
      seq.state->end_spec_capture();
    }
    seq.fed += kept;
    // Every known token fed and none sampled: a scoring request is complete.
    if (seq.fed == tokens.size()) seq.done = true;
    if (spec) {
      em_.spec_bursts->add();
      em_.spec_drafted->add(n - 1);
      em_.spec_accepted->add(kept - 1);
      em_.spec_rejected->add(n - kept);
      seq.drafter->observe(tokens, kept - 1);
    }
    // Served accounting is charged with rows actually kept — a fair-share
    // policy must not bill a request for rejected rows it never kept.
    seq.tokens_served += kept;
    prio.tokens_served += kept;
    em_.rows_committed->add(kept);
    scheduler_->on_served(seq.id, kept);
    // Latency per sampled token: TTFT (in steps and wall-clock) on the
    // request's first generated token, ITL between consecutive ones. Tokens
    // of one verify burst share the step's timestamp, so intra-burst ITL is
    // ~0 — the stream really does arrive in bursts.
    for (std::size_t j = 0; j < emitted_[i].size(); ++j) {
      if (!seq.has_token) {
        seq.has_token = true;
        prio.ttft_steps +=
            static_cast<std::size_t>(step_counter_ - seq.submit_step);
        ++prio.first_tokens;
        em_.ttft_ms->observe(to_ms(now_tp - seq.submit_tp));
      } else {
        em_.itl_ms->observe(to_ms(now_tp - seq.last_token_tp));
      }
      seq.last_token_tp = now_tp;
    }
    // Per-slot model-pass cost, from the parallel phase's scratch.
    const bool chunk = !spec && n > 1;
    (spec ? em_.spec_verify_ms
          : chunk ? em_.prefill_chunk_ms : em_.decode_ms)
        ->observe(static_cast<double>(decode_dur_us_[i]) / 1000.0);
    trace_.emit({.kind = spec    ? TraceEventKind::kSpecBurst
                         : chunk ? TraceEventKind::kChunk
                                 : TraceEventKind::kDecode,
                 .ts_us = decode_end_us_[i],
                 .dur_us = decode_dur_us_[i],
                 .step = step_counter_,
                 .request = seq.id,
                 .a = n,
                 .b = fed_pos_[i],
                 .c = n * kv_row_bytes_,
                 .d = emitted_[i].size()});
  }

  // Observer pass: sequence states (and their logits buffers) are all still
  // alive. Within a chunk the observer sees every fed position in order,
  // exactly as a token-by-token run would have reported it. A throw here
  // propagates to the caller with the engine in a consistent state; the
  // remaining observer calls of this step are skipped.
  if (observer_ || token_observer_ || logprob_observer_) {
    for (std::size_t i = 0; i < decoded; ++i) {
      const Sequence& seq = batch_[i];
      const std::size_t n = budgets_[i];
      // Rows that survived the step: the full budget on every plain path,
      // only the committed prefix of a speculative burst — rejected rows'
      // positions no longer exist, and a baseline run never fed them.
      const std::size_t rows = seq.fed - fed_pos_[i];
      if (observer_) {
        for (std::size_t j = 0; j < rows; ++j) {
          observer_(seq.id, fed_pos_[i] + j, row_logits(*seq.state, n, j));
        }
      }
      // Streamed tokens follow their positions' logits, in generation
      // order; kNone reason means the stream continues past that token.
      for (std::size_t j = 0; j < emitted_[i].size(); ++j) {
        const EmittedTok& tok = emitted_[i][j];
        const std::size_t gen_index =
            seq.result.generated() - emitted_[i].size() + j;
        const FinishReason reason = j + 1 == emitted_[i].size()
                                        ? seq.result.finish_reason
                                        : FinishReason::kNone;
        if (token_observer_) {
          token_observer_(seq.id, gen_index, tok.token, reason);
        }
        if (logprob_observer_) {
          TokenLogprobInfo info;
          info.token = tok.token;
          info.logprob =
              token_logprob(row_logits(*seq.state, n, tok.row), tok.token);
          info.speculative = tok.speculative;
          info.draft_hit = tok.draft_hit;
          logprob_observer_(seq.id, gen_index, info);
        }
      }
    }
  }

  // Retire pass: stable in-place compaction, no per-step allocation.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < decoded; ++i) {
    if (batch_[i].done) {
      finish(std::move(batch_[i]), RequestStatus::kFinished);
    } else {
      if (keep != i) batch_[keep] = std::move(batch_[i]);
      ++keep;
    }
  }
  batch_.resize(keep);

  // Step record: per-sequence events above precede it in emission order,
  // which is what write_step_trace's single forward scan groups on.
  const std::uint64_t step_end_us = trace_.now_us();
  em_.step_ms->observe(static_cast<double>(step_end_us - step_t0_us) /
                       1000.0);
  trace_.emit({.kind = TraceEventKind::kStep,
               .ts_us = step_end_us,
               .dur_us = step_end_us - step_t0_us,
               .step = step_counter_,
               .a = decoded,
               .b = rows_fed_total,
               .c = kv_pool_->blocks_in_use(),
               .d = kv_pool_->free_blocks()});
  em_.running->set(static_cast<double>(batch_.size()));
  em_.queued->set(static_cast<double>(queue_.size()));
  return decoded;
}

void ServingEngine::run() {
  while (step() > 0) {
  }
}

ServingEngine::Stats ServingEngine::stats() const {
  Stats s;
  s.blocks_in_use = kv_pool_->blocks_in_use();
  s.blocks_free = kv_pool_->free_blocks();
  s.blocks_peak = kv_pool_->peak_blocks_in_use();
  s.blocks_reclaimable = kv_pool_->reclaimable_blocks();
  s.running = batch_.size();
  s.queued = queue_.size();
  s.evictions = em_.evictions->value();
  s.preemptions = em_.preemptions->value();
  s.tokens_decoded = em_.tokens_decoded->value();
  s.steps = em_.steps->value();
  s.spec_bursts = em_.spec_bursts->value();
  s.spec_drafted = em_.spec_drafted->value();
  s.spec_accepted = em_.spec_accepted->value();
  s.spec_rejected = em_.spec_rejected->value();
  if (prefix_cache_ != nullptr) {
    const auto p = prefix_cache_->stats();
    s.prefix_hits = p.hits;
    s.prefix_misses = p.lookups - p.hits;
    s.prefix_hit_tokens = p.hit_positions;
    s.prefix_cached_blocks = p.cached_blocks;
    s.prefix_reclaimed_blocks = p.reclaimed_blocks;
  }
  s.by_priority = prio_stats_;
  s.finish_reasons = finish_counts_;
  return s;
}

RequestResult ServingEngine::result(RequestId id) const {
  if (const auto it = done_.find(id); it != done_.end()) return it->second;
  for (const auto& seq : batch_) {
    if (seq.id == id) return seq.result;
  }
  for (const auto& seq : queue_) {
    if (seq.id == id) return seq.result;
  }
  throw std::invalid_argument("ServingEngine::result: unknown request id");
}

bool ServingEngine::finished(RequestId id) const {
  // Status-only lookup: no RequestResult copy (result() returns by value).
  if (done_.contains(id)) return true;  // done_ holds finished/evicted only
  for (const auto& seq : batch_) {
    if (seq.id == id) return false;
  }
  for (const auto& seq : queue_) {
    if (seq.id == id) return false;
  }
  throw std::invalid_argument("ServingEngine::finished: unknown request id");
}

}  // namespace opal
