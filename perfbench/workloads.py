"""The benchmark's workloads, layer probes and correctness gates.

Every workload is a single-process closed loop: one client, and the next op
starts only after the previous one has finished. A workload object offers

  setup_rep()  config, weight init and one warm-up op (timed as set-up)
  op()         one op; returns the seconds spent in package calls
  check_op()   (exact counts, failures) of the op just run, outside timing
  finish(n)    (failures, seconds to charge to the window) after n ops
  gates()      [(gate, ok, detail)], checked once after the window
  derived(m)   per-layer metrics computed from the other per-layer metrics

All arrays are float64. Spans wrap the calls made into each package module.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from structattn import cli, icl
from structattn.attention import (MLRAttentionConfig, ScoreFunctionConfig,
                                  attention_layer_forward, init_attention_weights,
                                  score_matrix_bilinear, score_matrix_mlr_attention,
                                  score_matrix_standard)
from structattn.costs import attention_cost_report
from structattn.icl import ICLTaskConfig, TrainConfig, eval_error_at_N, icl_loss, sample_batch
from structattn.masks import MaskSpec, mask_matrix
from structattn.model import ModelConfig, Transformer, learning_rates
from structattn.optim import AdamW
from structattn.structured import (BTTSpec, MLRSpec, apply, bilinear, init_factors,
                                   materialize)
from structattn.tensor import (GradTape, Tensor, backward, flop_scope, gelu,
                               softmax_rows_masked, tsum)

import reference

CAUSAL = MaskSpec("causal")

# icl-train: the shipped in-context regression shapes (T = 2 * 32 - 1 = 63)
D_INPUT, D_MODEL, LAYERS, BATCH = 16, 64, 2, 16
# the eval cadence and size of the shipped configs/icl_d16_*.json
EVAL_PROMPTS = 256
EVAL_EVERY = 500
LOSS_CHECK_STEPS = 3     # steps compared bit for bit against icl.train
ICL_MODELS = {
    "standard-h8": dict(heads=8, score_kind="standard"),
    "standard-h1": dict(heads=1, score_kind="standard"),
    "bilinear-mlr": dict(heads=8, score_kind="bilinear-mlr", ranks=(4, 2, 1, 1)),
    "bilinear-btt": dict(heads=8, score_kind="bilinear-btt", btt_s=1),
}

# long-context: one layer, B 1, T 1024, D 64
LONG_T, LONG_D = 1024, 64
LAYER_KINDS = ("standard-h8", "standard-h1", "bilinear-mlr", "bilinear-btt", "mlr-attention")
REFERENCE_TOL = 1e-10

# checks: tiny arrays, Python overhead per tensor op dominates
ORACLE_TRIALS = 50
GRAD_D, GRAD_T = 4, 3
# the grad-check command's default seed. At other seeds the central
# difference (step 1e-5) misses bilinear-mlr's gradient at D 4 for about 3%
# of seeds, because a 2-wide layer norm is sharply curved there; the taped
# gradient agrees as the step shrinks (see README)
GRAD_SEED = 0
GRAD_KINDS = {"standard-h1": "standard", "bilinear-mlr": "bilinear-mlr",
              "bilinear-btt": "bilinear-btt", "mlr-attention": "mlr-attention"}
FLOPS_TABLE = Path("configs") / "flops_table.json"
MLR8_ROW, MLR8_SCORE_FLOPS = "mlr8-uniform", 16_711_680

# probes run in every traced run, at the shapes the per-layer metrics name
GELU_SHAPE = (16, 63, 256)
PROBE_STREAM = 7


def layer_config(kind: str):
    """(heads, score config) of one long-context layer kind."""
    return {
        "standard-h8": (8, ScoreFunctionConfig("standard", r=8)),
        "standard-h1": (1, ScoreFunctionConfig("standard", r=64)),
        "bilinear-mlr": (8, ScoreFunctionConfig(
            "bilinear-mlr", spec=MLRSpec.equal_blocks(LONG_D, LONG_D, (4, 2, 1, 1)))),
        "bilinear-btt": (8, ScoreFunctionConfig("bilinear-btt",
                                                spec=BTTSpec.square_root(LONG_D, 1))),
        "mlr-attention": (1, MLRAttentionConfig((8,) * 8)),
    }[kind]


def tape_counts(kind: str, tape: GradTape, macs: int) -> dict:
    return {f"tensor.tape_nodes.{kind}": len(tape.nodes),
            f"tensor.fwd_macs.{kind}": macs,
            f"tensor.tape_mb.{kind}": sum(n.output.data.nbytes for n in tape.nodes) / 1e6}


def all_finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def score_forward(xh: Tensor, weights, cfg) -> Tensor:
    if isinstance(cfg, MLRAttentionConfig):
        return score_matrix_mlr_attention(xh, weights.wq, weights.wk, cfg)
    if cfg.kind == "standard":
        return score_matrix_standard(xh, weights.wq, weights.wk)
    return score_matrix_bilinear(xh, cfg, weights.q_blocks, weights.k_blocks)


def closed_form_score_macs(cfg, heads: int) -> int:
    """attention_cost_report's MACs for what score_forward meters, all heads.

    The bilinear rows already include the factor projections; the standard
    and mlr-attention rows quote them separately.
    """
    if isinstance(cfg, MLRAttentionConfig):
        rep = attention_cost_report("mlr-attention", LONG_T, LONG_D, ranks=cfg.ranks)
    elif cfg.kind == "standard":
        rep = attention_cost_report("standard", LONG_T, LONG_D, r=cfg.r)
    elif cfg.kind == "bilinear-mlr":
        rep = attention_cost_report("bilinear-mlr", LONG_T, LONG_D, ranks=cfg.spec.ranks)
        return heads * rep.score_flops
    else:
        rep = attention_cost_report("bilinear-btt", LONG_T, LONG_D, s=cfg.spec.s)
        return heads * rep.score_flops
    return heads * (rep.score_flops + rep.projection_flops)


def score_macs_ratio(kind: str, xh: Tensor, weights, cfg, tracer=None) -> float:
    """Metered score MACs over the closed form; spanned when a tracer is given."""
    span = tracer.span("attention.score", kind) if tracer else nullcontext()
    with span, flop_scope() as fc:
        score_forward(xh, weights, cfg)
    return fc.macs / closed_form_score_macs(cfg, weights.heads)


def op_seed(*key) -> int:
    """An integer seed derived from key, for functions that take an int."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


class Workload:
    """Defaults for the hooks a workload may leave out."""

    def __init__(self, seed: int, tracer, root: Path):
        self.seed = seed
        self.tracer = tracer
        self.root = root
        self.gate_counts: dict = {}  # exact counts measured by gates()
        self.losses: dict | None = None  # per-model loss sequences, when the op trains

    def finish(self, n: int):
        return None, 0.0

    def gates(self):
        return []

    def derived(self, metrics):
        return {}


# ---------------------------------------------------------------------------
# icl-train
# ---------------------------------------------------------------------------

class ICLTrain(Workload):
    """One op: an AdamW step (sample, taped forward, backward, optimizer) per model."""

    name = "icl-train"

    def setup_rep(self):
        span = self.tracer.span
        self.task = ICLTaskConfig(D_INPUT, seed=self.seed)
        self.train_cfg = TrainConfig(steps=LOSS_CHECK_STEPS, batch_size=BATCH,
                                     seed=self.seed, eval_prompts=1)
        tc = self.train_cfg
        self.model_cfgs = {kind: ModelConfig(d_input=D_INPUT, d_model=D_MODEL, layers=LAYERS, **kw)
                           for kind, kw in ICL_MODELS.items()}
        self.models = {}
        for kind, cfg in self.model_cfgs.items():
            with span("mup.init"):
                model = Transformer.init(cfg, np.random.default_rng(tc.seed), tc.base_lr,
                                         tc.base_width, dtype=tc.dtype)
            opt = AdamW(learning_rates(model.rules), tc.beta1, tc.beta2, tc.eps,
                        tc.weight_decay)
            self.models[kind] = [model, opt]
        self.step = 0
        self.losses = {kind: [] for kind in self.models}
        self._pending = {}
        self.op()

    def op(self) -> float:
        span = self.tracer.span
        self.step += 1
        elapsed = 0.0
        for kind, state in self.models.items():
            model, opt = state
            t0 = time.perf_counter()
            with span("icl.sample"):
                batch = sample_batch(self.task, BATCH, (self.task.seed, icl._TRAIN_STREAM, self.step))
            with span("model.forward", kind), flop_scope() as fc:
                with GradTape() as tape:
                    loss = icl_loss(model, batch)
                loss_val = loss.item()
            with span("tensor.backward", kind):
                grads = backward(tape, loss)
            gdict = {path: grads[p] for path, p in model.params.items()}
            with span("optim.step", kind):
                state[0] = model.with_params(opt.step(model.params, gdict))
            elapsed += time.perf_counter() - t0
            # counted here so that one step's tape is alive at a time, as in icl.train
            self._pending[kind] = (loss_val, gdict, tape_counts(kind, tape, fc.macs), batch)
            del tape
        return elapsed

    def check_op(self):
        counts, failures = {}, []
        for kind, (loss_val, gdict, c, batch) in self._pending.items():
            self.losses[kind].append(loss_val)
            if not math.isfinite(loss_val) or not all_finite(gdict.values()):
                failures.append(f"{kind} step {self.step}: non-finite loss or gradient")
            # the readout starts at zero, so every first prediction is exactly 0
            if self.step == 1 and loss_val != float(np.mean(batch.targets ** 2)):
                failures.append(f"{kind}: step-1 loss {loss_val!r} != mean(targets**2)")
            counts.update(c)
        self._pending = {}
        return counts, failures

    def eval(self) -> list[str]:
        failures = []
        with self.tracer.span("eval"):
            for kind, (model, _) in self.models.items():
                with self.tracer.span("icl.eval", kind):
                    err = eval_error_at_N(model, self.task, EVAL_PROMPTS)
                if not math.isfinite(err):
                    failures.append(f"{kind}: eval error {err!r} at step {self.step}")
        return failures

    def finish(self, n: int):
        """One eval pass, charged to the window as the n / EVAL_EVERY passes due.

        A run is far shorter than EVAL_EVERY ops, so the pass runs once after
        the loop and weighs in ops_per_s as much as in a shipped training run.
        """
        t0 = time.perf_counter()
        failures = self.eval()
        return failures, (time.perf_counter() - t0) * n / EVAL_EVERY

    def gates(self):
        """The first losses equal icl.train's on the same seeds, bit for bit."""
        out = []
        for kind, cfg in self.model_cfgs.items():
            ref = icl.train(cfg, self.task, self.train_cfg)
            want = [row["loss"] for row in ref.rows[1:]]
            got = self.losses[kind][:LOSS_CHECK_STEPS]
            out.append((f"{kind} losses match icl.train", got == want, f"{got} vs {want}"))
        return out


# ---------------------------------------------------------------------------
# long-context
# ---------------------------------------------------------------------------

class LongContext(Workload):
    """One op: attention_layer_forward plus backward once per layer kind."""

    name = "long-context"

    def __init__(self, seed: int, tracer, root: Path):
        super().__init__(seed, tracer, root)
        self.expected: dict[str, np.ndarray] = {}

    def setup_rep(self):
        rng = np.random.default_rng(self.seed)
        self.x = Tensor(rng.standard_normal((1, LONG_T, LONG_D)), requires_grad=True)
        self.g_out = rng.standard_normal((1, LONG_T, LONG_D))
        self.layers = {}
        for kind in LAYER_KINDS:
            heads, cfg = layer_config(kind)
            self.layers[kind] = (cfg, init_attention_weights(rng, LONG_D, heads, cfg))
        self._pending = {}
        self.op()

    def op(self) -> float:
        span = self.tracer.span
        elapsed = 0.0
        for kind, (cfg, weights) in self.layers.items():
            t0 = time.perf_counter()
            with span("attention.layer_fwd", kind), flop_scope() as fc, GradTape() as tape:
                out = attention_layer_forward(self.x, weights, cfg, CAUSAL)
            with span("tensor.backward", kind):
                grads = backward(tape, out, seed=self.g_out)
            elapsed += time.perf_counter() - t0
            # counted here so the (B, H, T, T) tape is freed before the next kind
            self._pending[kind] = (out, grads, tape_counts(kind, tape, fc.macs))
            del tape
        return elapsed

    def check_op(self):
        counts, failures = {}, []
        for kind, (out, grads, c) in self._pending.items():
            counts.update(c)
            cfg, weights = self.layers[kind]
            if not all_finite(grads[t] for t in [self.x] + weights.tensors()):
                failures.append(f"{kind}: non-finite gradient")
            want = self.expected.setdefault(kind, out.to_numpy())
            if not np.array_equal(out.data, want):
                failures.append(f"{kind}: output differs from the first op's")
        self._pending = {}
        return counts, failures

    def gates(self):
        """Outputs against a dense numpy reference; score MACs against the cost model."""
        out = []
        x = self.x.data[0]
        xh = self.x.detach()[..., None, :, :]
        self.gate_counts = {}
        for kind, (cfg, weights) in self.layers.items():
            err = float(np.max(np.abs(self.expected[kind][0] - reference.layer_output(x, weights, cfg))))
            out.append((f"{kind} matches dense reference", err <= REFERENCE_TOL, f"max |delta| {err:.3e}"))
            if kind == "bilinear-mlr":
                err = reference.mlr_factor_mismatch(weights, cfg)
                out.append(("bilinear-mlr factors match materialize", err <= REFERENCE_TOL,
                            f"max |delta| {err:.3e}"))
            self.gate_counts[f"costs.macs_ratio.{kind}"] = score_macs_ratio(kind, xh, weights, cfg)
        return out

    def derived(self, metrics):
        out = {}
        for kind in LAYER_KINDS:
            bwd = metrics[f"tensor.backward_ms.{kind}"]
            out[f"attention.layer_bwd_ms.{kind}"] = bwd
            gmacs = metrics[f"tensor.fwd_macs.{kind}"] / 1e9
            out[f"attention.ms_per_gmac.{kind}"] = (metrics[f"attention.layer_fwd_ms.{kind}"] + bwd) / gmacs
        return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Checks(Workload):
    """One op: oracle sweep, gradient checks and the closed-form cost table."""

    name = "checks"

    def setup_rep(self):
        with open(self.root / FLOPS_TABLE) as f:
            cost = json.load(f)["cost"]
        self.table = [dict(row, T=row.get("T", cost["T"])) for row in cost["rows"]]
        self.grad_cfgs = {kind: cli._grad_check_config(cli_kind, GRAD_D)
                          for kind, cli_kind in GRAD_KINDS.items()}
        self.index = 0
        self._pending = None
        self.op()

    def op(self) -> float:
        span = self.tracer.span
        i = self.index
        self.index += 1
        oracle, probes, grad = [], [], {}
        t0 = time.perf_counter()
        for fi, family in enumerate(cli.ORACLE_FAMILIES):
            with span("cli.oracle_sweep"):
                oracle.append(cli.oracle_sweep(family, ORACLE_TRIALS, op_seed(self.seed, i, fi)))
            rng = np.random.default_rng((self.seed, i, fi))
            spec = cli.random_spec(family, rng)
            factors = init_factors(spec, rng)
            x = rng.standard_normal((spec.n, 3))
            y = rng.standard_normal((spec.m, 2))
            with span("structured.materialize", family):
                dense = materialize(spec, factors)
            with span("structured.apply", family):
                ax = apply(spec, factors, x)
            with span("structured.bilinear", family):
                bl = bilinear(spec, factors, y, x)
            probes.append((family, dense, x, y, ax, bl))
        for kind, cli_kind in GRAD_KINDS.items():
            with span("cli.grad_check", kind):
                grad[kind] = cli.gradient_check(cli_kind, GRAD_D, GRAD_T, GRAD_SEED)
        with span("costs.table"):
            rows = {row["id"]: attention_cost_report(row["family"], row["T"], row["D"],
                                                     r=row.get("r"), ranks=row.get("ranks"),
                                                     s=row.get("s"), order=row.get("order"))
                    for row in self.table}
        elapsed = time.perf_counter() - t0
        self._pending = (oracle, probes, grad, rows)
        return elapsed

    def check_op(self):
        oracle, probes, grad, rows = self._pending
        self._pending = None
        failures = [f"oracle_sweep {family}: {worst:.3e}"
                    for family, worst in zip(cli.ORACLE_FAMILIES, oracle)
                    if not worst <= cli.ORACLE_TOL]
        for family, dense, x, y, ax, bl in probes:
            worst = max(float(np.max(np.abs(ax.to_numpy() - dense @ x))),
                        float(np.max(np.abs(bl.to_numpy() - y.T @ dense @ x))))
            if not worst <= cli.ORACLE_TOL:
                failures.append(f"structured {family}: factored vs dense {worst:.3e}")
        failures += [f"gradient_check {kind}: {err:.3e}" for kind, err in grad.items()
                     if not err < cli.GRAD_TOL]
        if rows[MLR8_ROW].score_flops != MLR8_SCORE_FLOPS:
            failures.append(f"{MLR8_ROW}: {rows[MLR8_ROW].score_flops} != {MLR8_SCORE_FLOPS}")
        # the tape gradient_check records, rebuilt here to count it
        counts = {}
        for kind, cfg in self.grad_cfgs.items():
            rng = np.random.default_rng(GRAD_SEED)
            weights = init_attention_weights(rng, GRAD_D, 1, cfg)
            x = Tensor(rng.standard_normal((GRAD_T, GRAD_D)), requires_grad=True)
            with flop_scope() as fc, GradTape() as tape:
                out = attention_layer_forward(x, weights, cfg, CAUSAL)
                tsum(out * out)
            counts.update(tape_counts(kind, tape, fc.macs))
        return counts, failures


WORKLOADS = {cls.name: cls for cls in (ICLTrain, LongContext, Checks)}


# ---------------------------------------------------------------------------
# layer probes: single calls at fixed shapes, run in every traced run
# ---------------------------------------------------------------------------

def run_probes(seed: int, tracer, reps: int):
    """Per-layer times of gelu, softmax, mask and score calls, plus MAC ratios.

    Returns a list with one dict of exact counts per repetition.
    """
    span = tracer.span
    rng = np.random.default_rng((seed, PROBE_STREAM))
    x = Tensor(rng.standard_normal((1, LONG_T, LONG_D)))
    xh = x[..., None, :, :]
    layers = {}
    for kind in LAYER_KINDS:
        heads, cfg = layer_config(kind)
        layers[kind] = (cfg, init_attention_weights(rng, LONG_D, heads, cfg, requires_grad=False))
    act = Tensor(rng.standard_normal(GELU_SHAPE), requires_grad=True)
    act_seed = rng.standard_normal(GELU_SHAPE)
    scores = {}
    for heads in sorted({w.heads for _, w in layers.values()}):
        shape = (1, heads, LONG_T, LONG_T)
        scores[heads] = (Tensor(rng.standard_normal(shape), requires_grad=True),
                         rng.standard_normal(shape))
    counts = []
    for _ in range(reps):
        rep = {}
        with span("probe"):
            with span("tensor.gelu"):
                with GradTape() as tape:
                    out = gelu(act)
                backward(tape, out, seed=act_seed)
            with span("masks.mask"):
                mask_matrix(CAUSAL, LONG_T)
            for kind, (cfg, weights) in layers.items():
                s, s_seed = scores[weights.heads]
                with span("tensor.softmax", kind):
                    with GradTape() as tape:
                        out = softmax_rows_masked(s, CAUSAL)
                    backward(tape, out, seed=s_seed)
                rep[f"costs.macs_ratio.{kind}"] = score_macs_ratio(kind, xh, weights, cfg, tracer)
        counts.append(rep)
    return counts


# ---------------------------------------------------------------------------
# metric registry
# ---------------------------------------------------------------------------

# (name, unit, better, bound); the timing bounds are wide because a small
# shared machine changes speed by 10-20% between runs, and at times within one
END_TO_END = (
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    icl_kinds, layer_kinds = tuple(ICL_MODELS), LAYER_KINDS
    ms = [("icl.sample_ms", ())] + [(f"{m}_ms", icl_kinds) for m in ("icl.eval", "model.forward", "optim.step")]
    ms += [("mup.init_ms", ()), ("tensor.backward_ms", layer_kinds), ("tensor.gelu_ms", ()),
           ("tensor.softmax_ms", layer_kinds), ("masks.mask_ms", ())]
    ms += [(f"attention.{m}_ms", layer_kinds) for m in ("score", "layer_fwd", "layer_bwd")]
    ms += [("costs.table_ms", ())]
    ms += [(f"structured.{m}_ms", cli.ORACLE_FAMILIES) for m in ("apply", "bilinear", "materialize")]
    ms += [("cli.oracle_sweep_ms", ()), ("cli.grad_check_ms", tuple(GRAD_KINDS))]
    out = []
    for name, kinds in ms:
        out += [(f"{name}.{k}", "ms") for k in kinds] if kinds else [(name, "ms")]
    out += [(f"tensor.tape_nodes.{k}", "count") for k in layer_kinds]
    out += [(f"tensor.fwd_macs.{k}", "count") for k in layer_kinds]
    out += [(f"tensor.tape_mb.{k}", "MB") for k in layer_kinds]
    out += [(f"attention.ms_per_gmac.{k}", "ms/GMAC") for k in layer_kinds]
    out += [(f"costs.macs_ratio.{k}", "ratio") for k in layer_kinds]
    out += [("trace.untraced_op_ms_p50", "ms"), ("trace.traced_op_ms_p50", "ms"),
            ("trace.overhead_pct", "%")]
    return out
