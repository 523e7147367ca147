// Package omxsim is a full reproduction, as a deterministic
// discrete-event simulation in pure Go, of
//
//	Brice Goglin, "Improving Message Passing over Ethernet with
//	I/OAT Copy Offload in Open-MX", IEEE Cluster 2008.
//
// The module implements the complete Open-MX stack (user library +
// kernel driver with eager, rendezvous-pull and one-copy local paths,
// retransmission and a registration cache), the I/OAT DMA engine, the
// Linux generic-Ethernet receive path (skbuff rings, interrupts, NAPI
// bottom halves), a 10 GbE wire, the native MXoE baseline it is
// wire-compatible with, an MPI layer and the Intel MPI Benchmarks —
// everything needed to regenerate the paper's Figures 3 and 5–12 and
// its Section IV-A microbenchmark numbers.
//
// # Package layout
//
// The simulation core, bottom-up:
//
//   - sim — the discrete-event engine: virtual time on a
//     zero-allocation calendar event queue, cooperative processes,
//     cancellable timers, daemons, the Run loop every experiment
//     drives. sim/trace renders recorded spans, instants and counters
//     as deterministic Chrome trace_event JSON and validates the
//     format.
//   - platform — the modelled hardware (dual quad-core Clovertown
//     hosts, memory and cache copy-rate models, the paper's testbed).
//   - internal/... — the machine model (cpu, hostmem, memmodel, bus,
//     nic, wire, ioat) and the protocol stacks (core is the Open-MX
//     driver, internal/mxoe the native firmware baseline, whose NIC
//     also runs whole collectives — barrier, bcast, allreduce, scan —
//     as firmware-resident tree state machines with segment combining,
//     posted as one descriptor and completed as one event; both run
//     internal/mxlib, the one MX user library: masked matching, eager
//     reassembly and the Wait/Test/Progress engine). hostmem keeps the per-buffer memory-hierarchy
//     ledgers — span coverage per L2 domain and L1, the DMA-cold and
//     DCA-resident states, the NUMA home socket, and the per-stack
//     LRU registration cache — all over a buffer's logical size, plus
//     the endpoint receive ring both stacks share (hostmem.Ring,
//     backed slot by slot on first use) and a per-size spare list of
//     released byte backings (Memory.Release: nic's Skb.Free returns
//     each skbuff's backing, after any I/OAT copy out of it retired,
//     and the next same-size allocation reuses it zeroed under a
//     fresh Buffer) — which memmodel.RateFor prices into
//     copy rates (DCA blend, wrong-socket and snoop penalties,
//     cross-socket, L1/L2/half-warm); nic and ioat charge
//     NUMA-distance deposit costs and mark every deposit
//     (WrittenByDMA, or WrittenByDCA on a platform.ClovertownDCA
//     machine, where the NIC pushes receive-ring lines into the
//     interrupt core's LLC). Frames own no payload copy they can
//     reference: Open-MX eager fragments and both stacks' pull
//     replies carry a slice of the pinned source, kept by the sender
//     until the send completes (only MX eager, complete at post time,
//     snapshots). Every per-peer transport decision both
//     stacks make lives once in internal/proto: the wire formats, the
//     receive window and tx channel (sequence issue, cumulative acks
//     with Karn-rule RTT samples, the backed-off retransmission
//     timer), rendezvous dedup, round-robin striping, MX matching,
//     and the adaptive-transport tier's proto.Peers (Config.Adaptive:
//     per-peer Jacobson/Karels RTT estimation driving every retransmit
//     timeout and AIMD pull windows bounded by the lane count). Open-MX
//     adds load-based IRQ steering from CPU ledger deltas on multi-NIC
//     hosts; with Adaptive off the static path is bit-identical to
//     before the tier existed.
//     internal/cpu models each core as a serial two-priority work
//     queue with per-category busy ledgers (user library, driver,
//     bottom-half processing and copies, I/OAT submission,
//     application compute) and deterministic Stats snapshots.
//   - cluster — hosts, links and switches composed into a testbed
//     from a declarative cluster.Topology (cluster.Build wires
//     back-to-back pairs, single switches, or 2-tier fat trees with
//     flow-sticky ECMP trunks), plus the network-impairment surface:
//     seeded deterministic
//     loss/reorder/duplication/jitter/rate-asymmetry profiles on any
//     link direction or switch port (cluster.Impair),
//     bounded switch output queues with tail-drop (cluster.Queue),
//     background cross-traffic generators (StartCrossTraffic) and
//     the NetStats counter snapshot. Hosts can aggregate several
//     NICs (cluster.MultiNIC): Link cables them lane by lane, a
//     switch gives each its own port, the stacks stripe eager
//     fragments and pull blocks across them, and NetStats attributes
//     every counter per NIC and per lane.
//   - openmx, mxoe — the public endpoint APIs over either stack,
//     both surfacing the host's CPU ledgers as a deterministic
//     CPUStats snapshot (Stack.CPUStats / ResetCPUStats). openmx
//     additionally exposes the adaptive threshold autotuner: either
//     AutoTuned(platform) for a fully probed configuration, or
//     Config.AutoTune to run ProbeThresholds when the stack attaches
//     — it picks the eager→rendezvous switch, the local
//     memcpy→I/OAT switch and the offload floor from the platform's
//     cost-curve crossovers (within 2× of every constant the paper
//     chose by hand on Clovertown).
//   - mpi — an MPI layer over the transport-neutral endpoint
//     interface: point-to-point plus the full collective set
//     (Barrier, Bcast, Reduce, Allreduce, ReduceScatter,
//     Gather/Scatter, Allgather(v), Alltoall(v)), each with two
//     algorithm variants (binomial tree / recursive doubling versus
//     ring / Bruck / scatter-allgather) selected by message and
//     world size through mpi.Tuning — which also resolves the
//     execution tier per call (Tuning.Offload auto/host/nic): on a
//     collective-capable stack, Barrier/Bcast/Allreduce/Scan can run
//     entirely in NIC firmware, with pinned BarrierNIC/BcastNIC/
//     AllreduceNIC/ScanNIC variants exported beside the host
//     algorithms.
//   - imb — the Intel-MPI-Benchmarks patterns (the Figure 12 set
//     plus Gather, Scatter and Barrier) with IMB timing conventions,
//     plus imb.Sweep for sharding whole benchmark runs across a
//     worker pool.
//   - metrics — series/tables the experiments produce, with exact
//     equality helpers for determinism guardrails.
//   - runner — the concurrent experiment orchestrator: a bounded
//     worker pool with deterministic result ordering, per-job panic
//     capture, a single-flight result cache keyed by canonical
//     config hash, and progress/ETA reporting.
//   - figures — every figure and table of the paper's evaluation,
//     each swept point an independent runner job; the Sections
//     registry names each renderable section, and SweepOn is the
//     error-returning sweep entry services use.
//   - internal/simd — the omxsimd service: a multi-tenant HTTP job
//     API (named clusters from the declarative topology vocabulary,
//     sweep/figure jobs on the shared pool, SSE progress, per-tenant
//     quotas, result caching, graceful drain).
//   - cmd/omxsim, cmd/omx-imb, cmd/omx-pingpong — the CLIs — and
//     cmd/omxsimd, the service daemon.
//
// # Reproducing the evaluation
//
// Every figure generator builds one isolated testbed per measured
// point and shards the points across runner.Default(), so
// reproduction wall time scales with the host's cores while the
// output stays byte-identical to a serial run (the simulation itself
// is deterministic virtual time — host parallelism cannot perturb
// it). Regenerate everything with
//
//	go run ./cmd/omxsim all
//
// or one figure at a time (fig3, fig7 … fig12, micro, timeline,
// nasis, coll, loss, avail, ablate, multinic, fattree, nicoll,
// adaptive, dca); add -progress for
// live sweep progress and ETA, and -plot for ASCII plots. The
// timeline figure also exports as Chrome trace_event JSON via
//
//	go run ./cmd/omxsim trace -o rx.json
//
// (open in chrome://tracing or Perfetto). Several
// figures go beyond the paper: multinic measures link-aggregated
// striping — ping-pong goodput across message size × {1,2,4} NICs ×
// {memcpy, I/OAT}, showing where the pull window must grow from the
// paper's fixed two blocks to two blocks per NIC;
// coll sweeps collective latency versus message
// size with I/OAT offload on/off at 4–16 processes (larger worlds
// connected through a simulated Ethernet switch); loss sweeps
// frame-loss rate × message size on a seeded impaired link, reporting
// goodput, p50/p99 latency and retransmission counts for both stacks
// — the reliability paths (cumulative acks with wraparound-safe
// serial arithmetic, duplicate suppression, exponential-backoff
// retransmission, pull-block retry) recover everything
// deterministically; fattree scales the collectives to 64–512 ranks
// on a 2-tier leaf/spine fat tree (flow-sticky ECMP trunks, 4:1
// oversubscription) against a 1-switch baseline where one fits;
// nicoll compares host-driven collective algorithms against the MXoE
// firmware state machines at fat-tree scale, reporting latency,
// non-compute host CPU per collective and achieved overlap under
// injected compute; adaptive pits the self-tuning transport
// (Config.Adaptive) against the hand-tuned static policies across
// {0,1,5%} frame loss × {1,2,4} NICs × {memcpy, I/OAT} — adaptive
// matches the best static everywhere and wins 1.3–2.5× wherever the
// wire is lossy; dca follows a received payload through the memory
// hierarchy — a ping-pong whose receiver immediately consumes each
// payload, sweeping {memcpy, I/OAT, DCA, I/OAT+warm} receive paths ×
// consumer placement × size, showing the bottom-half copy doubling as
// a prefetch, DCA extending that win, and the offload's goodput
// advantage returning once the consumer sits cross-socket; and avail
// measures the paper's headline claim
// directly — a ping-pong with injected compute on the interrupt core,
// reporting achieved overlap %, non-compute host CPU µs per MiB and
// goodput for memcpy versus I/OAT receive paths, remote and local,
// with the autotuner's chosen thresholds in the footer. The IMB suite
// runs standalone via
//
//	go run ./cmd/omx-imb -test all -ppn 2
//	go run ./cmd/omx-imb -test allreduce,alltoall,bcast -nodes 8 -ppn 2
//
// Start with package cluster to build a testbed, package openmx (or
// mxoe) for endpoints, and package figures to regenerate the paper's
// evaluation. See README.md for the CI gates and Makefile targets,
// and docs/ARCHITECTURE.md for the layer diagram and seven event-flow
// walkthroughs naming the functions and costs on every hop.
package omxsim
