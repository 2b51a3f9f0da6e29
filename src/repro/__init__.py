"""repro — a reproduction of "Deep Learning Towards Mobile Applications"
(Wang, Cao, Yu, Sun, Bao, Zhu; ICDCS 2018).

The package provides every system the survey describes, built from
scratch on numpy/scipy:

* :mod:`repro.tensor`, :mod:`repro.nn`, :mod:`repro.optim` — a reverse-mode
  autodiff engine with GRU/LSTM/conv layers and the cited optimizers;
* :mod:`repro.federated` — distributed selective SGD, FedSGD, FedAvg over
  a simulated mobile fleet with communication accounting;
* :mod:`repro.privacy` — DP mechanisms, the moments accountant, DP-SGD,
  PATE, and user-level DP-FedAvg;
* :mod:`repro.compression` — the Deep Compression pipeline (pruning,
  weight sharing, Huffman coding), low-rank factorization, circulant
  layers, and knowledge distillation;
* :mod:`repro.inference` — cloud/device/split deployment planning, private
  split inference with noisy training, and early-exit distributed DNNs;
* :mod:`repro.mobile` — device/network/energy models and fleet simulation;
* :mod:`repro.core` — the paper's applications DeepMood and DEEPSERVICE;
* :mod:`repro.synth` — synthetic substitutes for the private BiAffect data
  and the image benchmarks;
* :mod:`repro.baselines` — from-scratch LR, SVM, CART, random forest, and
  XGBoost-style boosting;
* :mod:`repro.profiler` — per-op call/byte counters and per-module
  timings hooked into the autograd engine and ``nn.Module`` forward passes;
* :mod:`repro.faults` — seeded fault injection (dropout, stragglers,
  link loss, corruption, staleness, availability windows) and the chaos
  harness behind the robustness tests;
* :mod:`repro.analysis` — static analysis and sanitizers: an autograd
  graph linter, a shape/dtype check run through the layer compiler, a
  mutation/NaN sanitizer, and the repo lint CLI
  (``python -m repro.analysis.lint src tests``).
"""

__version__ = "1.0.0"

from . import (  # noqa: F401
    analysis,
    baselines,
    compression,
    core,
    data,
    faults,
    federated,
    inference,
    mobile,
    nn,
    optim,
    privacy,
    profiler,
    serve,
    synth,
    tensor,
)

__all__ = [
    "analysis",
    "baselines",
    "compression",
    "core",
    "data",
    "faults",
    "federated",
    "inference",
    "mobile",
    "nn",
    "optim",
    "privacy",
    "profiler",
    "serve",
    "synth",
    "tensor",
    "__version__",
]
