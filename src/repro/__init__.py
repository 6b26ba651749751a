"""repro — reproduction of *Quality of Service Support for Fine-Grained
Sharing on GPUs* (Wang et al., ISCA 2017).

A pure-Python cycle-level simulator of a multitasking GPU with the paper's
fine-grained QoS mechanisms (quota-based dynamic management + static TB
allocation over Simultaneous-Multikernel sharing), the Spart spatial
partitioning baseline, synthetic Parboil workload models, a GPUWattch-style
power model, and a harness regenerating every table and figure of the
paper's evaluation.

Quickstart::

    from repro import (FAST_GPU, GPUSimulator, LaunchedKernel, QoSPolicy,
                       get_kernel)

    kernels = [
        LaunchedKernel(get_kernel("sgemm"), is_qos=True, ipc_goal=120.0),
        LaunchedKernel(get_kernel("lbm")),
    ]
    sim = GPUSimulator(FAST_GPU, kernels, QoSPolicy("rollover"))
    sim.run(50_000)
    for kernel in sim.result().kernels:
        print(kernel.name, kernel.ipc, kernel.reached_goal)

Names and subpackages load on first use: ``import repro`` imports no
simulator code, so ``repro lint`` and :mod:`repro.harness.expdb` load
without it.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "FAST_GPU",
    "PAPER_GPU",
    "PASCAL56_GPU",
    "GPUConfig",
    "SMConfig",
    "MemoryConfig",
    "LatencyConfig",
    "PreemptionConfig",
    "preset",
    "InstructionMix",
    "KernelSpec",
    "MemoryPattern",
    "PARBOIL",
    "PARBOIL_NAMES",
    "get_kernel",
    "GPUSimulator",
    "LaunchedKernel",
    "SharingPolicy",
    "SimulationResult",
    "QoSPolicy",
    "QoSRequirement",
    "TransferModel",
    "translate_qos_goal",
    "scheme_by_name",
    "SpartPolicy",
    "PowerModel",
    "__version__",
]


def _lazy_exports(namespace, exports):
    """Module ``__getattr__`` and ``__dir__`` (PEP 562) for the package
    whose globals are ``namespace``.

    ``exports`` maps each exported name to the module it comes from; that
    module is imported on the name's first access.  Any other name is
    imported as a submodule of the package, and an unknown one raises
    ``AttributeError``.  A resolved name is bound in ``namespace``, so the
    hook runs once per name.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        if name in exports:
            value = getattr(importlib.import_module(exports[name]), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute "
                                     f"{name!r}") from None
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__


_EXPORTS = {
    name: module
    for module, names in (
        ("repro.config", ("FAST_GPU", "PAPER_GPU", "PASCAL56_GPU", "GPUConfig",
                          "SMConfig", "MemoryConfig", "LatencyConfig",
                          "PreemptionConfig", "preset")),
        ("repro.kernels", ("InstructionMix", "KernelSpec", "MemoryPattern",
                           "PARBOIL", "PARBOIL_NAMES", "get_kernel")),
        ("repro.sim", ("GPUSimulator", "LaunchedKernel", "SharingPolicy",
                       "SimulationResult")),
        ("repro.qos", ("QoSPolicy", "QoSRequirement", "TransferModel",
                       "translate_qos_goal", "scheme_by_name")),
        ("repro.baselines", ("SpartPolicy",)),
        ("repro.power", ("PowerModel",)),
    )
    for name in names
}

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
