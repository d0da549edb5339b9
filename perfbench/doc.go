// Command perfbench is the repository's benchmark: one process that serves
// a discovery gateway the way `lormnode serve` builds it and drives it over
// loopback TCP, reporting what a grid user sees end to end and, in a
// separate traced run, where the time goes layer by layer.
//
//	bash perfbench/run.sh --workload wan-mix --seed 1 --seconds 10 --trace 0
//
// run.sh builds this module (its own go.mod, replacing module lorm with
// the checkout it sits in) under .bench_build and runs it. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the lines before it print every metric by name with
// its unit, and error_rate, the failed share of attempted operations.
//
// # The served stack
//
// The system (LORM or SWORD) runs over 256 peers with the cpu/mem/disk
// schema, the Cycloid dimension from fitDimension and 20 Chord bits. A
// tracing.Tracer at sample rate 0 observes its routing fabric, then
// emulate.WithHopLatency and transport.NewServer on 127.0.0.1:0 front it.
// Set-up — building the system, prefilling it through the public
// discovery.System.Register, listening and dialling — is timed as
// setup_s: a plain run builds the stack at least three times and until
// the builds took 3 s (at most 20 times), reports the median, and drives
// only the last build. The driver uses at most min(2, nproc) pipelined
// transport.Client connections.
// Inputs come from --seed: values uniform over each attribute's domain,
// owners from a pool of 2000 sites, queries ranging over cpu and mem.
//
// # Workloads
//
//   - wan-mix: LORM, 20k pieces, 1ms emulated delay per overlay
//     message. Open loop at 1000 ops/s on a fixed timetable, 30% announces
//     and 70% two-attribute range queries matching ~30 pieces, singular
//     verbs. It exists because the emulated WAN sleeps dominate: routing
//     message counts and transport concurrency set the latency, codec and
//     directory CPU barely show. Latency runs from each operation's
//     scheduled arrival; the run fails when the generator's p99 lag shows
//     it fell behind its timetable. The delay is 1ms rather than 200µs.
//     On a shared two-vCPU machine the host at times withholds CPU for
//     minutes, which added several milliseconds to the 200µs p99s and
//     doubled them; the same few milliseconds are a fifth as large a
//     share of the 1ms latencies, which are five times longer and whose
//     p99s agree within about 1% from run to run in quiet periods. About 25 operations are in flight on
//     average and at most about 40, so each of the two connections stays
//     under its pipeline window and the server's concurrency, 32 each.
//   - cpu-announce: SWORD, 300k pieces, no delay. Closed loop of register
//     batches of 8, 8 frames in flight, a fixed count of announces (30k
//     for each second of --seconds) rather than a fixed time, so two
//     commits end with the same store. SWORD keeps each attribute on one
//     node, so a partition holds 100k entries and more at any deployment
//     size, and chord is on the path. It exists for the CPU of the write
//     path: the directory's stage-merge inserts, batch codec and GC.
//     Beside it runs a probe of 200 singular queries/s on its own
//     timetable, timed from scheduled arrival, so the workload reports
//     query latency under write load too. Frames are timed from send.
//
// A read workload of large discover batches (100k pieces, ~650 matches
// per query) is left out: saturating both cores with it, the figures of
// consecutive runs drifted by up to a third as the host slowed the
// machine, and at a third of the load its p99s still spread by more than
// a quarter between runs.
//
// # Answer checks
//
// Every answer must have each match inside the range of the sub-query on
// its attribute and, as owners, exactly the sites with a match for every
// sub-query. After the timed phase the directories must hold the prefill
// plus the acknowledged announces (replication factor 1), the routing
// counters must have advanced by exactly the operations and costs the
// gateway returned, and 64 further queries must get the owners and match
// multiset a discovery.Oracle holding that final store gives. Any failure
// makes correct false and exits 1.
//
// # Layers and their metrics
//
// A --trace 1 run measures a plain phase and then a traced phase on a
// fresh stack, each for half of --seconds, and reports the per-layer
// metrics of the traced phase. Tracing here is measured from outside the
// program: timing wrappers around the calls into each layer's public
// functions, and deltas over the timed phase of counters the program
// exports through metrics.Default(). Each layer's metrics, with the
// end-to-end metric and workload they should move:
//
//   - driver (this load generator): driver.lag_p99_ms,
//     driver.inflight_mean. They move query_p99_ms on wan-mix, and show
//     when the generator rather than the program set the tail.
//   - transport (client, pipeline, codec, server): transport.call_p50_us,
//     transport.call_p99_us (time inside the client call),
//     transport.overhead_us_per_frame (client call minus the served
//     system's time), transport.bytes_per_op, transport.retries,
//     transport.timeouts, transport.redials,
//     transport.pipeline_inflight_peak (the most client calls, each one
//     pipelined request, outstanding at once in the timed phase). They move ops_per_s and cpu_us_per_op on cpu-announce;
//     predicted: no change to wan-mix latency.
//   - emulate: emulate.wan_ms_per_op (outer wrapper minus inner wrapper)
//     and emulate.wan_share (of end-to-end latency). They move
//     query_p50_ms and announce_p50_ms on wan-mix. Without a delay the
//     layer is absent and they read the wrappers' own few nanoseconds.
//   - discovery (the served system, core or sword):
//     discovery.discover_us_p50, discovery.discover_us_p99,
//     discovery.register_us_p50, discovery.register_us_p99, from the
//     wrapper inside emulate. They move ops_per_s on cpu-announce and
//     query_p50_ms on wan-mix by at most the share of the latency they
//     take.
//   - routing (the fabric over cycloid or chord): routing.hops_per_query,
//     routing.visited_per_query, routing.messages_per_query,
//     routing.messages_per_announce, exact counts from lorm_op_* deltas.
//     They move wan-mix latency at 1ms per message.
//   - directory: directory.match_entries_per_query,
//     directory.stage_merges_per_kadd, directory.max_entries,
//     directory.entries_end. They move ops_per_s, announce_p99_ms and
//     live_heap_mb on cpu-announce; a write-path change must leave the
//     query latencies flat.
//   - runtime (the Go runtime, from runtime/metrics and the GC pause
//     record of runtime.MemStats): runtime.allocs_per_op,
//     runtime.alloc_bytes_per_op, runtime.gc_cpu_frac,
//     runtime.gc_pause_p99_us. They move cpu_us_per_op everywhere and
//     announce_p99_ms on cpu-announce.
//   - tracing overhead: traced.overhead_pct.<metric> for every end-to-end
//     metric, how much worse the traced phase read than the plain one.
//
// The end-to-end metrics of a plain run are setup_s, query_p50_ms,
// query_p99_ms, announce_p50_ms, announce_p99_ms, ops_per_s (completed
// operations per second of the timed phase; on wan-mix this is the open
// loop's offered rate, which a slower gateway cannot lower — it shows in
// the latencies or fails the lag check instead — so it is reported there
// only so that every workload reports every metric), cpu_us_per_op (process CPU
// over completed operations, the driver's included) and live_heap_mb
// (after a forced GC at the end, with the driver's inputs dropped).
// Quantiles are nearest-rank. On wan-mix a p99 is the median of the p99s
// of the first, middle and last third of the operations, each third
// holding about two thousand samples or more in a 20-second phase, so one
// stall of the machine under the benchmark does not set it. On
// cpu-announce the store grows through the phase, so its thirds differ by
// design; there, as for every p50, all samples are pooled.
package main
