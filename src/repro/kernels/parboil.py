"""Models of the 10 Parboil benchmarks used in the paper's evaluation.

Section 4.1: "We use 10 benchmarks from the Parboil benchmark set.  bfs is
not used because it is too small to interfere with any sharer kernels."  The
largest datasets are used, and benchmarks shorter than the simulation window
are re-executed — our TB supply is unbounded, which models exactly that.

Each model is calibrated to the benchmark's published architectural
character, most importantly the compute- vs memory-intensive split the paper
relies on in Figure 7:

* compute-intensive (C): ``cutcp``, ``mri-q``, ``sad``, ``sgemm``, ``tpacf``
* memory-intensive (M): ``histo``, ``lbm``, ``mri-gridding``, ``spmv``,
  ``stencil``

Secondary traits carried over from the Parboil characterisation: ``sgemm``
and ``cutcp`` are shared-memory tiled with barriers; ``mri-q`` and ``tpacf``
lean on special-function units; ``spmv`` and ``mri-gridding`` are irregular
(uncoalesced) while ``lbm`` and ``stencil`` are streaming; ``histo`` runs
short kernels (small per-TB work), which is why the paper finds neither
scheme handles it well.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.kernels.fusion import fuse_kernels
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern

MB = 1024 * 1024

PARBOIL: Dict[str, KernelSpec] = {}


def _register(spec: KernelSpec) -> KernelSpec:
    if spec.name in PARBOIL:
        raise ValueError(f"duplicate benchmark {spec.name!r}")
    PARBOIL[spec.name] = spec
    return spec


_register(KernelSpec(
    name="cutcp",
    threads_per_tb=128,
    regs_per_thread=40,
    smem_per_tb_bytes=4 * 1024,
    mix=InstructionMix(alu=0.78, sfu=0.06, ldg=0.05, stg=0.02, lds=0.09,
                       barrier_per_iteration=True),
    memory=MemoryPattern(footprint_bytes=8 * MB, coalesced_fraction=0.95,
                         reuse_fraction=0.93),
    ilp=0.6,
    divergence=0.05,
    body_length=112,
    iterations_per_tb=4,
    intensity="compute",
))

_register(KernelSpec(
    name="histo",
    threads_per_tb=256,
    regs_per_thread=20,
    smem_per_tb_bytes=8 * 1024,
    mix=InstructionMix(alu=0.42, sfu=0.0, ldg=0.28, stg=0.18, lds=0.12),
    memory=MemoryPattern(footprint_bytes=96 * MB, coalesced_fraction=0.45,
                         uncoalesced_degree=4, reuse_fraction=0.1),
    ilp=0.35,
    divergence=0.15,
    body_length=64,
    iterations_per_tb=2,  # short kernels: little work per TB
    intensity="memory",
))

_register(KernelSpec(
    name="lbm",
    threads_per_tb=128,
    regs_per_thread=84,
    smem_per_tb_bytes=0,
    mix=InstructionMix(alu=0.52, sfu=0.0, ldg=0.30, stg=0.18, lds=0.0),
    memory=MemoryPattern(footprint_bytes=256 * MB, coalesced_fraction=0.9,
                         reuse_fraction=0.05),
    ilp=0.55,
    divergence=0.02,
    body_length=128,
    iterations_per_tb=2,
    intensity="memory",
))

_register(KernelSpec(
    name="mri-gridding",
    threads_per_tb=256,
    regs_per_thread=36,
    smem_per_tb_bytes=2 * 1024,
    mix=InstructionMix(alu=0.48, sfu=0.04, ldg=0.30, stg=0.12, lds=0.06),
    memory=MemoryPattern(footprint_bytes=128 * MB, coalesced_fraction=0.35,
                         uncoalesced_degree=4, reuse_fraction=0.15),
    ilp=0.4,
    divergence=0.2,
    body_length=96,
    iterations_per_tb=3,
    intensity="memory",
))

_register(KernelSpec(
    name="mri-q",
    threads_per_tb=256,
    regs_per_thread=24,
    smem_per_tb_bytes=0,
    mix=InstructionMix(alu=0.68, sfu=0.24, ldg=0.05, stg=0.03, lds=0.0),
    memory=MemoryPattern(footprint_bytes=4 * MB, coalesced_fraction=1.0,
                         reuse_fraction=0.9),
    ilp=0.7,
    divergence=0.0,
    body_length=100,
    iterations_per_tb=5,
    intensity="compute",
))

_register(KernelSpec(
    name="sad",
    threads_per_tb=64,
    regs_per_thread=28,
    smem_per_tb_bytes=1024,
    mix=InstructionMix(alu=0.78, sfu=0.0, ldg=0.10, stg=0.06, lds=0.06),
    memory=MemoryPattern(footprint_bytes=12 * MB, coalesced_fraction=0.95,
                         uncoalesced_degree=2, reuse_fraction=0.85),
    ilp=0.55,
    divergence=0.1,
    body_length=80,
    iterations_per_tb=4,
    intensity="compute",
))

_register(KernelSpec(
    name="sgemm",
    threads_per_tb=128,
    regs_per_thread=48,
    smem_per_tb_bytes=8 * 1024,
    mix=InstructionMix(alu=0.74, sfu=0.0, ldg=0.08, stg=0.02, lds=0.16,
                       barrier_per_iteration=True),
    memory=MemoryPattern(footprint_bytes=16 * MB, coalesced_fraction=1.0,
                         reuse_fraction=0.88),
    ilp=0.75,
    divergence=0.0,
    body_length=120,
    iterations_per_tb=4,
    intensity="compute",
))

_register(KernelSpec(
    name="spmv",
    threads_per_tb=192,
    regs_per_thread=22,
    smem_per_tb_bytes=0,
    mix=InstructionMix(alu=0.40, sfu=0.0, ldg=0.48, stg=0.06, lds=0.06),
    memory=MemoryPattern(footprint_bytes=160 * MB, coalesced_fraction=0.3,
                         uncoalesced_degree=4, reuse_fraction=0.1),
    ilp=0.3,
    divergence=0.25,
    body_length=72,
    iterations_per_tb=3,
    intensity="memory",
))

_register(KernelSpec(
    name="stencil",
    threads_per_tb=128,
    regs_per_thread=30,
    smem_per_tb_bytes=0,
    mix=InstructionMix(alu=0.50, sfu=0.0, ldg=0.36, stg=0.14, lds=0.0),
    memory=MemoryPattern(footprint_bytes=192 * MB, coalesced_fraction=0.85,
                         reuse_fraction=0.3),
    ilp=0.5,
    divergence=0.02,
    body_length=88,
    iterations_per_tb=3,
    intensity="memory",
))

_register(KernelSpec(
    name="tpacf",
    threads_per_tb=256,
    regs_per_thread=34,
    smem_per_tb_bytes=12 * 1024,
    mix=InstructionMix(alu=0.62, sfu=0.18, ldg=0.06, stg=0.02, lds=0.12,
                       barrier_per_iteration=True),
    memory=MemoryPattern(footprint_bytes=6 * MB, coalesced_fraction=0.9,
                         reuse_fraction=0.93),
    ilp=0.6,
    divergence=0.12,
    body_length=104,
    iterations_per_tb=3,
    intensity="compute",
))


PARBOIL_NAMES: Tuple[str, ...] = tuple(sorted(PARBOIL))
COMPUTE_INTENSIVE: Tuple[str, ...] = tuple(
    name for name in PARBOIL_NAMES if PARBOIL[name].intensity == "compute")
MEMORY_INTENSIVE: Tuple[str, ...] = tuple(
    name for name in PARBOIL_NAMES if PARBOIL[name].intensity == "memory")


def get_kernel(name: str) -> KernelSpec:
    """Look up a benchmark model by name, or ``fused-<a>+<b>``: the
    :func:`~repro.kernels.fusion.fuse_kernels` result of two of them."""
    if name.startswith("fused-") and "+" in name:
        first, second = name[len("fused-"):].split("+", 1)
        return fuse_kernels(get_kernel(first), get_kernel(second))
    try:
        return PARBOIL[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {list(PARBOIL_NAMES)}") from None


def intensity_class(name: str) -> str:
    """'C' for compute-intensive benchmarks, 'M' for memory-intensive ones."""
    return "C" if get_kernel(name).intensity == "compute" else "M"


def pair_class(first: str, second: str) -> str:
    """The Figure 7 pairing category: 'C+C', 'C+M' or 'M+M'."""
    classes = sorted((intensity_class(first), intensity_class(second)))
    return f"{classes[0]}+{classes[1]}"
