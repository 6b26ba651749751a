"""The end-to-end benchmark's own code: inputs, workloads, the measured
process, the layer trace and the metric helpers (see ``../README.md``)."""
