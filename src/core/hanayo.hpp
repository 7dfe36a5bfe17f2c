#pragma once
// Hanayo — wave-like pipeline parallelism (SC '23 reproduction).
//
// Single-include public API. The front door is hanayo::Session: one builder
// for model + schedule + execution engine, one result vocabulary
// (StepReport / RunReport) for every engine:
//
//   #include "core/hanayo.hpp"
//
//   auto session = hanayo::Session::builder()
//                      .model(hanayo::ModelConfig::tiny(/*layers=*/14))
//                      .algo(hanayo::Algo::Hanayo)
//                      .pipeline(4)        // P workers
//                      .micro_batches(8)   // B per iteration
//                      .waves(2)           // W
//                      .backend(hanayo::BackendKind::Threads)
//                      .build();
//   hanayo::Rng rng(7);
//   const auto batch = hanayo::synthetic_batch(session.config().model,
//                                              session.batch_rows(), rng);
//   float loss = session.step(batch).loss;
//
// Swap .backend(BackendKind::Sim) to dry-run the same configuration on the
// discrete-event cost model (predicted throughput/memory, nothing
// executed), or call session.predict() on any session. For the paper's
// Fig. 10 configuration search over a whole cluster:
//
//   hanayo::PlanRequest req;
//   req.model = hanayo::ModelConfig::bert_paper();
//   req.cluster = hanayo::Cluster::tacc(32);
//   req.total_devices = 32;
//   req.batch_sequences = 8;
//   auto plans = hanayo::plan(req);  // ranked perf::Candidate rows
//
// Serving is the same builder chain with serving knobs: a forward-only wave
// pipeline with per-stream KV caches, continuous batching up to max_batch,
// seeded sampling (greedy / top-k / temperature), stop tokens, and dp
// pipeline replicas behind one shared queue — with decode that is
// token-identical across Threads and Reference, replicas, and runs:
//
//   auto server = hanayo::InferenceSession::builder()
//                     .model(hanayo::ModelConfig::tiny(/*layers=*/14))
//                     .algo(hanayo::Algo::Hanayo)
//                     .pipeline(4).waves(2)
//                     .backend(hanayo::BackendKind::Threads)
//                     .max_batch(4).max_new_tokens(4)
//                     .sampling(hanayo::Sampling::TopK(8, 0.8f))
//                     .eos(2)               // stop-token id
//                     .data_parallel(2)     // dp replicas, one shared queue
//                     .seed(7)              // per-request sampling streams
//                     .build();
//   hanayo::Tensor prompt({1, 5});          // token ids
//   server.enqueue(prompt);
//   auto completions = server.run();        // Completion{id, tokens, stop_reason}
//   auto serve_report = server.report();    // tokens/sec, ms/token, per-replica
//   auto sla = server.predict();            // forward-only dry run (models dp)
//
// Serving also has its Fig. 10: the decode-aware planner searches
// (algo, P, W, max_batch, dp) against a cluster and an SLA target, pruning
// by KV/weight memory and event-simulating the mixed prefill/decode
// timeline of each surviving cell. A session can self-configure from the
// winning candidate (whose predicted numbers its predict() then reproduces
// bit-for-bit):
//
//   hanayo::ServeTarget target;
//   target.total_devices = 8;
//   target.prompt_tokens = 12;
//   target.max_new_tokens = 8;
//   auto rows = hanayo::plan_serving(hanayo::Cluster::fc(),
//                                    hanayo::ModelConfig::tiny(14), target);
//   std::puts(rows.front().to_string().c_str());  // ranked ServeCandidate
//
//   auto planned = hanayo::InferenceSession::builder()
//                      .model(hanayo::ModelConfig::tiny(14))
//                      .backend(hanayo::BackendKind::Sim)
//                      .cluster(hanayo::Cluster::fc())  // plan + predict on it
//                      .auto_plan(target)   // adopts (algo, P, W, batch, dp)
//                      .build();
//   auto picked_sla = planned.predict();   // == the winning row's numbers
//
// Streaming completions ride on the same enqueue call: pass an on_token
// callback and each selected token is delivered at the pass boundary that
// produced it —
//
//   server.enqueue(prompt, 0, [](const hanayo::TokenEvent& e) {
//     std::printf("req %lld token %lld%s", (long long)e.request_id,
//                 (long long)e.token, e.last ? " (done)\n" : "\n");
//   });
//
// Serving under load adds per-request SLAs on the same chain: a deadline
// (relative seconds from enqueue; misses complete as
// StopReason::DeadlineExceeded within one pass), a bounded admission queue
// (refusals complete as StopReason::Rejected instead of waiting forever),
// and a cancel handle honoured mid-decode at the next pass boundary. After
// a drain, the outcome counters conserve:
// submitted == served + rejected + cancelled + timed_out.
//
//   auto sla_server = hanayo::InferenceSession::builder()
//                         .model(hanayo::ModelConfig::tiny(/*layers=*/6))
//                         .backend(hanayo::BackendKind::Threads)
//                         .pipeline(2).max_batch(2).max_new_tokens(4)
//                         .deadline_s(0.5)  // default per-request SLA
//                         .queue(hanayo::QueuePolicy::RejectNew, 4)
//                         .build();
//   hanayo::Tensor p({1, 5});
//   auto id = sla_server.enqueue(p);        // config deadline applies
//   sla_server.enqueue(p, 0, {}, 2.0);      // per-request override
//   sla_server.cancel(id);                  // -> StopReason::Cancelled
//   auto outcome = sla_server.run();        // enqueue/admit/first_token/
//                                           // finish timestamps on each
//   auto load_rep = sla_server.report();    // p50/p99 TTFT over survivors
//
// KV rows always live in one pooled page store per replica, with admission
// priced in pages a request can actually need instead of a worst-case
// slot. .paged_kv() turns on its cross-request prefix cache and the
// page/pool knobs: fixed-size pages (kv_page_tokens rows per attention
// layer), and requests that share a prompt head (a common system prompt)
// adopting the published pages and skipping that part of prefill — while
// decoding tokens that stay bitwise identical to a run without it.
// Chat-style reuse:
//
//   auto paged = hanayo::InferenceSession::builder()
//                    .model(hanayo::ModelConfig::tiny(6, 32, 2, 67,
//                                                     /*seq=*/24))
//                    .backend(hanayo::BackendKind::Threads)
//                    .pipeline(2).max_batch(1).max_new_tokens(4)
//                    .paged_kv()           // pooled pages + prefix cache
//                    .kv_page_tokens(8)    // rows per page per layer
//                    .build();
//   hanayo::Tensor turn1({1, 12}), turn2({1, 12});  // ids: same first 8
//   paged.enqueue(turn1);                  //      tokens, different tails
//   paged.run();                           // prefills all 12, publishes
//   paged.enqueue(turn2);
//   paged.run();                           // prefills the 4-token tail only
//   auto page_rep = paged.report();
//   page_rep.prefill_tokens_saved();       // == 8: head served from cache
//   page_rep.prefix_hit_rate();            // fraction of prompt tokens hit
//   page_rep.kv_pages_peak;                // pool high-water mark (pages)
//
// (.kv_pool_pages(n) bounds the per-replica pool — a dry pool holds
// requests back or sheds them under QueuePolicy instead of deadlocking;
// .prefix_cache(false) keeps the paged knobs but disables cross-request
// sharing.)
//
// The pre-Session entry points (Trainer, AsyncTrainer, SequentialEngine and
// their config structs) remain available below as compatibility shims; the
// Session backends are thin wrappers over them.
//
// Contributor rules (enforced by CI, see README "Correctness & CI"):
//
//   * Locks: never declare a raw std::mutex / std::condition_variable. Use
//     sync::Mutex<Rank> / sync::CondVar from core/sync.hpp; the rank table
//     there is the single global acquisition order, and debug/sanitizer
//     builds abort on the first out-of-order acquire. Holding two locks
//     means taking them in strictly increasing rank order — if your new
//     lock does not fit between existing ranks, add a named rank and
//     document what it protects.
//   * Threads: runtime code forks work only through runtime::Gang
//     (runtime/gang.hpp); never spawn a std::thread or hand-roll an
//     exception_ptr join there. Kernels use tensor::parallel_for.
//   * Receives: a pipeline interpreter receives only through
//     runtime::RecvAhead (runtime/recv_ahead.hpp), which owns the tags,
//     the prefetch window and the posted-receive ring.
//   * KV cache: K/V rows live only in runtime::KvStore
//     (runtime/kv_store.hpp). Layers reach it through the one
//     Layer::set_kv_store hook and read the cache one page run at a time
//     (KvStore::run) in place; never keep a second K/V copy, slab or
//     gathered panel in a layer or worker.
//   * Sanitizers: CI runs the full suite under TSan and ASan+UBSan with no
//     suppression files. A race or lifetime bug anywhere in the threaded
//     stack fails the build; do not add suppressions, fix the bug.
//   * Hot-path allocations: tensor::alloc_stats() meters the global heap;
//     tests/runtime/test_alloc_decode.cpp pins the steady-state decode
//     pass at ZERO heap allocations and budgets the training step. If the
//     gate trips, move the allocation into the arena — never raise the
//     bound.
//   * Arenas: every buffer whose lifetime ends at the pass/iteration
//     boundary comes from the active tensor::Arena (installed by
//     ArenaScope in the worker loops; Tensor and ScratchBuffer
//     constructors consult it automatically) — never bare `new`, a
//     std::vector::resize, or a std::make_unique on a hot path. State
//     that must outlive the pass (optimizer slots) allocates under
//     tensor::ArenaPause; KV pages come from the store's preallocated
//     pool. Diagnose stray allocations with
//     tensor::alloc_stats_trace(true).

#include "api/inference.hpp"
#include "api/session.hpp"
#include "comm/collectives.hpp"
#include "comm/fp16.hpp"
#include "data/corpus.hpp"
#include "data/dataloader.hpp"
#include "model/checkpoint.hpp"
#include "model/loss.hpp"
#include "model/lr_schedule.hpp"
#include "model/optimizer.hpp"
#include "model/partition.hpp"
#include "model/scaler.hpp"
#include "model/transformer.hpp"
#include "perf/analytic.hpp"
#include "perf/calibrate.hpp"
#include "perf/engine.hpp"
#include "perf/hybrid.hpp"
#include "perf/planner.hpp"
#include "perf/serve_planner.hpp"
#include "perf/zones.hpp"
#include "runtime/async_trainer.hpp"
#include "runtime/engine.hpp"
#include "runtime/trainer.hpp"
#include "schedule/algorithms.hpp"
#include "schedule/async.hpp"
#include "schedule/validate.hpp"
#include "sim/cluster.hpp"
#include "sim/event_sim.hpp"
#include "tensor/half.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace hanayo {

// Re-export the primary vocabulary types at the top level.
using api::Backend;
using api::BackendKind;
using api::Completion;
using api::EngineConfig;
using api::FaultInjection;
using api::InferenceConfig;
using api::InferenceSession;
using api::MemoryReport;
using api::QueuePolicy;
using api::RunReport;
using api::Sampling;
using api::ServeReport;
using api::StopReason;
using api::Session;
using api::SessionConfig;
using api::StepReport;
using data::DataLoader;
using data::LoaderConfig;
using data::SyntheticCorpus;
using api::TokenCallback;
using api::TokenEvent;
using model::DynamicLossScaler;
using model::LrSchedule;
using model::ModelConfig;
using perf::best_serving;
using perf::calibrate_serving;
using perf::Candidate;
using perf::Engine;
using perf::measure_serving_rates;
using perf::plan;
using perf::plan_serving;
using perf::PlanRequest;
using perf::ServeCandidate;
using perf::ServeTarget;
using perf::ServingCalibration;
using perf::ServingPoint;
using perf::ServingSample;
using runtime::AsyncTrainer;
using runtime::AsyncTrainerConfig;
using runtime::Batch;
using runtime::OptKind;
using runtime::SequentialEngine;
using runtime::Trainer;
using runtime::TrainerConfig;
using schedule::Algo;
using schedule::make_async_schedule;
using schedule::make_schedule;
using schedule::Placement;
using schedule::Schedule;
using schedule::ScheduleRequest;
using sim::Cluster;
using sim::simulate;
using tensor::Rng;
using tensor::Tensor;

/// Generates a synthetic language-modelling batch: random token ids with
/// next-token targets (targets[i] = inputs shifted by one within the
/// sequence, wrapping) — a stand-in for the text corpora the paper trains
/// on; the compute and communication are identical.
Batch synthetic_batch(const ModelConfig& model, int64_t sequences, Rng& rng);

/// Library version string.
const char* version();

}  // namespace hanayo
