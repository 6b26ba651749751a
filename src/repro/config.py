"""Machine configurations for the simulated GPU.

The paper (Table 1) evaluates a 16-SM GPU modelled after a Pascal-class part:

=============== ========= ==================== =======
GPU parameter   Value     SM parameter         Value
=============== ========= ==================== =======
Core frequency  1216 MHz  Registers            256 KB
Memory freq.    7 GHz     Shared memory        96 KB
Number of SMs   16        Threads              2048
Number of MCs   4         TB limit             32
Sched. policy   GTO       Warp schedulers      4
=============== ========= ==================== =======

Three presets are exported:

``PAPER_GPU``
    Table 1 verbatim, with a 10K-cycle QoS epoch (Section 4.1).
``PASCAL56_GPU``
    The 56-SM configuration of Section 4.6 (two warp schedulers per SM,
    everything else as Table 1).
``FAST_GPU``
    A scaled-down preset used by the default benchmark harness so that the
    pure-Python simulator finishes in seconds per case.  Memory bandwidth is
    scaled proportionally to the SM count so per-SM contention matches the
    paper machine; the epoch is shortened in the same ratio as the simulated
    window so adaptation dynamics are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

KB = 1024


@dataclass(frozen=True)
class SMConfig:
    """Static per-SM resources (the four TB admission limits plus issue width)."""

    registers_bytes: int = 256 * KB
    shared_memory_bytes: int = 96 * KB
    max_threads: int = 2048
    max_tbs: int = 32
    warp_schedulers: int = 4
    warp_size: int = 32

    @property
    def max_warps(self) -> int:
        return self.max_threads // self.warp_size


@dataclass(frozen=True)
class LatencyConfig:
    """Pipeline and memory latencies, in core cycles.

    ``dram`` is the row-miss (precharge + activate + CAS) latency;
    ``dram_row_hit`` is the open-row CAS-only latency that sequential
    streams enjoy.
    """

    alu: int = 4
    sfu: int = 16
    shared_mem: int = 24
    l1_hit: int = 28
    l2_hit: int = 120
    dram: int = 340
    dram_row_hit: int = 160
    interconnect: int = 8
    barrier_release: int = 1


@dataclass(frozen=True)
class MemoryConfig:
    """Cache geometry and memory-controller bandwidth model.

    Each memory controller services one line-sized request every
    ``mc_service_interval`` core cycles; requests queue FCFS behind the
    controller, which is how bandwidth contention between co-running kernels
    arises.  Each controller owns a private slice of L2 (Section 2.1).
    """

    line_size: int = 128
    l1_size: int = 24 * KB
    l1_assoc: int = 6
    l1_mshrs: int = 48
    l2_slice_size: int = 512 * KB
    l2_assoc: int = 16
    mc_service_interval: int = 2
    #: DRAM geometry behind each controller: banks with one open row each.
    #: Rows hold ``dram_row_lines`` consecutive cache lines; consecutive
    #: rows interleave across banks.  Set ``dram_banks=0`` to disable the
    #: bank model (flat row-miss latency for every DRAM access).
    dram_banks: int = 8
    dram_row_lines: int = 16
    latency: LatencyConfig = field(default_factory=LatencyConfig)


@dataclass(frozen=True)
class PreemptionConfig:
    """Preemption cost model (Section 2.3 / 4.8, HSA preemption kinds).

    ``mode="save"`` is the partial context switch of the SMK papers [41,42]:
    saving a TB writes its registers and shared-memory partition to device
    memory; we charge a drain window plus a store phase proportional to the
    context footprint, during which the TB occupies its resources but issues
    nothing.  ``mode="reset"`` is HSA's context reset as used by Chimera
    [31]: the context is dropped — eviction is instantaneous but the TB's
    partial progress is wasted (re-executed by a future TB), which the
    engine accounts as ``wasted_thread_insts``.

    ``enabled=False`` makes save-mode eviction free, the knob behind the
    Section 4.8 preemption-overhead ablation.
    """

    enabled: bool = True
    mode: str = "save"
    drain_cycles: int = 200
    bytes_per_cycle: int = 256

    def __post_init__(self) -> None:
        if self.mode not in ("save", "reset"):
            raise ValueError(f"unknown preemption mode {self.mode!r}")

    def eviction_cycles(self, context_bytes: int) -> int:
        if not self.enabled or self.mode == "reset":
            return 0
        return self.drain_cycles + context_bytes // self.bytes_per_cycle


@dataclass(frozen=True)
class ControllerConfig:
    """Gain presets for the pluggable SLO quota controllers
    (:mod:`repro.controllers`).

    Living on :class:`GPUConfig` makes every gain part of the machine
    description — it is hashed into persistent case-cache keys, so tuning a
    gain can never serve a stale cached record.

    PID terms act on the *normalised* IPC-goal residual
    ``(goal - epoch_ipc) / goal``; the controller output is a quota scale
    (the alpha of Section 3.4.2), clamped to ``[alpha_floor, alpha_cap]``
    with conditional-integration anti-windup at the clamps.

    The MPC controller fits a linear epoch-IPC-vs-quota-scale model over a
    ring of the last ``mpc_history`` epochs and evaluates
    ``mpc_candidates`` equally spaced candidate scales, rejecting those
    predicted to push aggregate non-QoS IPC below ``mpc_nonqos_floor``
    times its observed peak; with fewer than ``mpc_min_points`` usable
    points (or a degenerate/non-positive slope) it falls back to the
    History control law.
    """

    alpha_floor: float = 0.25
    alpha_cap: float = 8.0
    pid_kp: float = 1.2
    pid_ki: float = 0.5
    pid_kd: float = 0.3
    pid_integral_limit: float = 12.0
    mpc_history: int = 8
    mpc_min_points: int = 4
    mpc_candidates: int = 25
    mpc_nonqos_floor: float = 0.4
    mpc_overshoot_weight: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_floor <= 1.0:
            raise ValueError("alpha_floor must be in (0, 1]")
        if self.alpha_cap < 1.0:
            raise ValueError("alpha_cap must be at least 1")
        if self.pid_integral_limit <= 0:
            raise ValueError("pid_integral_limit must be positive")
        if self.mpc_history < 2 or self.mpc_min_points < 2:
            raise ValueError("MPC needs at least two history points")
        if self.mpc_candidates < 2:
            raise ValueError("mpc_candidates must be at least 2")
        if not 0.0 <= self.mpc_nonqos_floor < 1.0:
            raise ValueError("mpc_nonqos_floor must be in [0, 1)")


@dataclass(frozen=True)
class GPUConfig:
    """Complete machine description handed to :class:`repro.sim.GPUSimulator`."""

    num_sms: int = 16
    num_mcs: int = 4
    core_freq_mhz: float = 1216.0
    mem_freq_mhz: float = 7000.0
    scheduler_policy: str = "gto"
    epoch_length: int = 10_000
    idle_warp_samples: int = 100
    sm: SMConfig = field(default_factory=SMConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    preemption: PreemptionConfig = field(default_factory=PreemptionConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError("num_sms must be positive")
        if self.num_mcs <= 0:
            raise ValueError("num_mcs must be positive")
        if self.epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        if self.scheduler_policy not in ("gto", "lrr"):
            raise ValueError(f"unknown scheduler policy {self.scheduler_policy!r}")

    def scaled(self, **overrides) -> "GPUConfig":
        """Return a copy with the given fields replaced (convenience wrapper)."""
        return replace(self, **overrides)


def gpu_config_from_dict(data: dict) -> GPUConfig:
    """Rebuild a :class:`GPUConfig` from its ``dataclasses.asdict`` form.

    The experiment store (:mod:`repro.harness.expdb`) persists the machine
    description of every registered sweep as a nested dict; resuming an
    interrupted sweep reconstructs the exact machine from it.  Unknown keys
    are rejected (a schema drift should fail loudly, not run on defaults).
    """
    payload = dict(data)
    memory = dict(payload.pop("memory", {}))
    latency = memory.pop("latency", None)
    if latency is not None:
        memory["latency"] = LatencyConfig(**latency)
    return GPUConfig(
        sm=SMConfig(**payload.pop("sm", {})),
        memory=MemoryConfig(**memory),
        preemption=PreemptionConfig(**payload.pop("preemption", {})),
        controller=ControllerConfig(**payload.pop("controller", {})),
        **payload,
    )


PAPER_GPU = GPUConfig()

PASCAL56_GPU = GPUConfig(
    num_sms=56,
    sm=SMConfig(warp_schedulers=2),
)

# The fast preset keeps the paper's per-SM shape (4 schedulers, 2048 threads,
# 32 TBs) but simulates 4 SMs against 1 MC, preserving the paper's 4:1
# SM-to-MC ratio and therefore the per-SM share of memory bandwidth.
FAST_GPU = GPUConfig(
    num_sms=4,
    num_mcs=1,
    epoch_length=1_000,
    idle_warp_samples=20,
    memory=MemoryConfig(l2_slice_size=256 * KB),
)


def preset(name: str) -> GPUConfig:
    """Look up a named configuration preset.

    >>> preset("paper").num_sms
    16
    """
    presets = {"paper": PAPER_GPU, "pascal56": PASCAL56_GPU, "fast": FAST_GPU}
    try:
        return presets[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(presets)}") from None
