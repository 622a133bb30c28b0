# Trace-corpus membership and capture command, sourced by
# capture_corpus.sh (which regenerates tests/corpus/) and
# check_capture.sh (the trace_capture_gate, which re-captures and
# byte-compares). Defining both here once keeps the gate and the
# regeneration script from drifting apart.
#
# Membership (tests/corpus/README.md documents the growth workflow):
# one small CNN, two transformer workloads (bert, and gpt2 standing in
# for the Megatron-class decoders built by src/dl/Megatron.cpp), and a
# UVM-heavy managed capture. Every trace carries goldens for at least
# two tools; the first tool of each trace additionally pins the csv and
# text sinks so all three ReportSink formats are regression-anchored.

# capture_corpus_trace ACCELPROF OUT <capture flags and model...>
#
# The one capture command: cs-gpu on an A100, writing OUT. (--capture
# attaches the trace_capture tool itself; no -t needed.)
capture_corpus_trace() {
  CCT_ACCELPROF=$1
  CCT_OUT=$2
  shift 2
  "$CCT_ACCELPROF" -b cs-gpu -g A100 --capture "$CCT_OUT" "$@" >/dev/null
}

# corpus_members CALLBACK
#
# Calls CALLBACK <name> "<tool> <tool>..." <capture flags and model...>
# once per corpus member, in this order.
corpus_members() {
  # AlexNet inference, 2 iterations: small enough to check in (~40 KiB),
  # rich enough to exercise every payload table (kernels, op names,
  # layer names).
  "$1" alexnet_a100_2iter "kernel_frequency op_kernel_map" \
    --iters 2 alexnet

  # BERT inference: the encoder-transformer workload from the model zoo
  # (deep schedule, many distinct kernels).
  "$1" bert_a100_1iter "kernel_frequency op_kernel_map" \
    --iters 1 bert

  # GPT-2 inference: decoder transformer, standing in for the
  # Megatron-class workloads (the Megatron schedule builder reuses the
  # same GPT-2 blocks).
  "$1" gpt2_a100_1iter "kernel_frequency op_kernel_map" \
    --iters 1 gpt2

  # UVM-heavy: managed allocations route through the UVM model, so this
  # trace carries migration/advice traffic the flat captures never see.
  "$1" alexnet_a100_uvm "mem_usage_timeline barrier_stall" \
    --iters 2 --managed alexnet
}
