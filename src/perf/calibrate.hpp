#pragma once
// Cost-model calibration against the real runtime.
//
// The simulator's inputs — seconds per FLOP, the backward/forward ratio,
// link bandwidth and latency — are normally taken from hardware specs
// (sim/cluster.cpp). This module measures them instead, on the machine the
// library is actually running on: stage compute is timed on the real
// tensor/model stack, and the P2P parameters are fitted from ping-pong
// round trips through the real transport. A simulator fed with calibrated
// numbers predicts *this* machine's pipeline behaviour, which is how the
// paper's Fig. 10-style search would be driven in practice.

#include <optional>
#include <vector>

#include "model/transformer.hpp"
#include "schedule/algorithms.hpp"
#include "sim/cluster.hpp"
#include "sim/cost_model.hpp"

namespace hanayo::perf {

struct Calibration {
  /// Seconds of compute per forward FLOP on this machine.
  double sec_per_flop = 0.0;
  /// Measured T_B / T_F (the paper assumes 2.0).
  double bwd_fwd_ratio = 2.0;
  /// Fitted transport bandwidth (bytes/s) and per-message latency (s).
  double bytes_per_s = 0.0;
  double latency_s = 0.0;

  bool valid() const {
    return sec_per_flop > 0 && bwd_fwd_ratio > 0 && bytes_per_s > 0 &&
           latency_s >= 0;
  }
};

/// The serving-side calibration: corrections the forward-only event model
/// needs before its pass times match a measured serving run. The base
/// Calibration prices compute at the *training-forward* rate (the rate
/// calibrate_compute times — a forward that also stashes activations for
/// backward); serving passes run through forward_infer at a different
/// effective rate, every pipeline pass pays a gang wake/join +
/// barrier tax the event model never sees, and on hosts with fewer cores
/// than dp * P workers the simulated compute/communication overlap
/// evaporates — a pass's wall clock is bounded below by the total busy
/// compute divided by the cores actually available. The first two
/// coefficients are *measured* directly (single-thread pass timings, so
/// the residual the regression sees is attributable); the last two are
/// *fitted* from measured serving rows by calibrate_serving.
struct ServingCalibration {
  /// Measured forward-only prefill seconds over the flop model's
  /// (training-forward-rate) seconds for the same pass.
  double prefill_rate_scale = 1.0;
  /// Same ratio for a single-token decode pass. Decode GEMVs run much
  /// faster per *counted* FLOP than a full-sequence training forward
  /// (no activation stash, no quadratic softmax traffic), so this is
  /// typically well below 1 — the single-stream "overcharge".
  double decode_rate_scale = 1.0;
  /// Fitted per-pipeline-pass orchestration overhead (seconds): gang
  /// wake/join, mailbox wakeups and the pass barrier.
  double pass_overhead_s = 0.0;
  /// Fitted per-worker orchestration cost (seconds per pass, per pipeline
  /// worker): each of a replica's P workers pays a wakeup + handoff on
  /// every pass. Unlike pass_overhead_s this is CPU *work*, so it extends
  /// the pass's critical path AND counts toward the oversubscription
  /// bound's busy seconds — which is why P = 4 passes cost visibly more
  /// than P = 2 passes on an oversubscribed host even when their simulated
  /// makespans agree.
  double worker_overhead_s = 0.0;
  /// Fitted CPU-oversubscription factor: with dp replicas of P workers on
  /// `host_cores` cores, a pass's wall is at least
  ///   oversub_factor * dp * (pass busy seconds) / host_cores.
  /// 0 disables the bound (e.g. nothing in the fit was oversubscribed).
  double oversub_factor = 0.0;
  int host_cores = 0;  ///< cores the fit was made against
  /// Fit diagnostics: rms of log(measured/fitted) over the fit rows.
  double residual_log_rms = 0.0;
  int fit_rows = 0;

  bool valid() const {
    return prefill_rate_scale > 0 && decode_rate_scale > 0 &&
           pass_overhead_s >= 0 && worker_overhead_s >= 0 &&
           oversub_factor >= 0 && host_cores >= 0;
  }
};

/// One measured serving observation for calibrate_serving: a configuration
/// plus its mean measured pass walls (summed seconds / passes from a
/// ServeReport, or any BENCH_serve/BENCH_traffic-style row).
struct ServingSample {
  schedule::Algo algo = schedule::Algo::Hanayo;
  int P = 1;
  int W = 1;
  int max_batch = 1;
  int dp = 1;
  int64_t prompt_tokens = 0;  ///< 0 = the engine's default rule
  int max_new_tokens = 16;
  double measured_decode_pass_s = 0.0;   ///< mean decode-pass wall; 0 = absent
  double measured_prefill_pass_s = 0.0;  ///< mean prefill-pass wall; 0 = absent
};

/// Measures the forward-only rate scales on this machine: times a
/// single-thread full-model prefill of `prompt_tokens` and a run of
/// 1-token decodes through the real inference path (model::StageModule
/// forward_infer), divides by the flop model's prediction at the base
/// calibration's rate, and returns a ServingCalibration carrying the two
/// scales plus the detected host core count (overheads left 0 — those are
/// calibrate_serving's fitted half).
ServingCalibration measure_serving_rates(const model::ModelConfig& cfg,
                                         const Calibration& base,
                                         int64_t prompt_tokens = 0,
                                         int repeats = 20);

/// Fits pass_overhead_s and oversub_factor from measured serving rows
/// (defined in perf/engine.cpp — the per-row predictions come from the
/// same Engine code path predict_serving prices with). `seed` carries the
/// measured rate scales and host core count (measure_serving_rates, or
/// known values in tests); the returned calibration is `seed` with the
/// fitted overheads and residual diagnostics filled in. Rows whose
/// measured columns are 0 are skipped; with no usable rows the seed is
/// returned unchanged.
ServingCalibration calibrate_serving(const model::ModelConfig& cfg,
                                     const sim::Cluster& cluster,
                                     const std::optional<Calibration>& cal,
                                     const std::vector<ServingSample>& rows,
                                     const ServingCalibration& seed);

/// Times forwards/backwards of the full model on one micro-batch of
/// `mb_sequences` sequences, repeated `repeats` times; returns seconds per
/// FLOP and the measured backward/forward ratio.
Calibration calibrate_compute(const model::ModelConfig& cfg, int mb_sequences,
                              int repeats = 3);

/// Fits (latency, bandwidth) of the in-process transport from ping-pong
/// round trips at a small and a large payload. Fills the comm fields of
/// `cal` in place.
void calibrate_comm(Calibration& cal, int repeats = 50);

/// Runs both calibrations.
Calibration calibrate(const model::ModelConfig& cfg, int mb_sequences,
                      int compute_repeats = 3, int comm_repeats = 50);

/// A homogeneous cluster whose parameters are this machine's measurements:
/// feeding it to the simulator predicts local pipeline runs.
sim::Cluster calibrated_cluster(int devices, const Calibration& cal,
                                double mem_bytes = 64e9);

/// Per-stage costs for `cfg` split into `stages`, using the measured
/// sec_per_flop and bwd/fwd ratio instead of the spec-derived defaults.
sim::PipelineCosts calibrated_costs(const model::ModelConfig& cfg, int stages,
                                    int mb_sequences, const Calibration& cal);

}  // namespace hanayo::perf
