#!/bin/sh
# The CI entry point: full build, test suite (sequential, and with 2- and
# 4-domain shared pools), the differential stages, the bench smoke tests
# including the machine-readable JSON output, and short verified runs of
# the perfbench workloads. The smoke stages are the dune aliases that
# `dune build @ci` runs (bench/dune, bin/dune), forced to re-run here so
# every stage executes and prints its output.
set -eu
cd "$(dirname "$0")"

smoke() {
  dune build --force "@$1"
}

echo "== build =="
dune build @all

echo "== tests =="
dune runtest

echo "== tests (COOP_JOBS=2: parallel analyses on the shared pool) =="
COOP_JOBS=2 dune runtest --force

echo "== tests (COOP_JOBS=4: deeper shared-queue interleavings) =="
# The other passes check the properties on the pinned default seed; this
# one draws a fresh seed, so CI keeps sampling new inputs. A failure
# reproduces with the echoed QCHECK_SEED.
QCHECK_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
echo "QCHECK_SEED=$QCHECK_SEED"
QCHECK_SEED=$QCHECK_SEED COOP_JOBS=4 dune runtest --force

echo "== differential suite (single-pass engine vs two-pass oracle) =="
dune exec test/test_main.exe -- test differential

echo "== witness differential suite (HB self-check, cross-mode identity) =="
dune exec test/test_main.exe -- test witness

echo "== witness smoke (explain + check --witness, coop-witness/v1) =="
smoke bench/smoke-witness

echo "== piped-trace smoke (check --trace - on stdin, one pass) =="
smoke bin/smoke-pipe

echo "== codec differential (text vs binary traces, identical verdicts) =="
# The same recording saved in both formats must produce byte-identical
# verdicts and witness documents, and piping the binary file through
# stdin must print the same verdict.
# `check` exits 1 when it finds violations — identical in both runs by
# construction; cmp is the gate.
dune exec bin/coopcheck.exe -- trace tsp --save _build/ci-diff.tr
dune exec bin/coopcheck.exe -- convert --to binary \
  _build/ci-diff.tr _build/ci-diff.ctr
dune exec bin/coopcheck.exe -- convert --to text \
  _build/ci-diff.ctr _build/ci-diff-roundtrip.tr
cmp _build/ci-diff.tr _build/ci-diff-roundtrip.tr
dune exec bin/coopcheck.exe -- check \
  --trace _build/ci-diff.tr --witness json:_build/ci-diff-text.json \
  > _build/ci-diff-text.out || [ $? -eq 1 ]
dune exec bin/coopcheck.exe -- check \
  --trace _build/ci-diff.ctr --witness json:_build/ci-diff-bin.json \
  > _build/ci-diff-bin.out || [ $? -eq 1 ]
cmp _build/ci-diff-text.out _build/ci-diff-bin.out
cmp _build/ci-diff-text.json _build/ci-diff-bin.json
dune exec bin/coopcheck.exe -- check --trace - \
  < _build/ci-diff.ctr > _build/ci-diff-pipe.out || [ $? -eq 1 ]
cmp _build/ci-diff-text.out _build/ci-diff-pipe.out

echo "== atomize differential (single-pass vs two-pass, text vs binary) =="
# The Atomizer must print the same warnings and witness documents from
# the single-pass engine and the two-pass reference, and from the text
# and binary recordings of the codec stage.
dune exec bin/coopcheck.exe -- atomize tsp \
  --witness json:_build/ci-atom-single.json > _build/ci-atom-single.out
dune exec bin/coopcheck.exe -- atomize tsp --two-pass \
  --witness json:_build/ci-atom-two.json > _build/ci-atom-two.out
cmp _build/ci-atom-single.out _build/ci-atom-two.out
cmp _build/ci-atom-single.json _build/ci-atom-two.json
dune exec bin/coopcheck.exe -- atomize --trace _build/ci-diff.tr \
  --witness json:_build/ci-atom-text.json > _build/ci-atom-text.out
dune exec bin/coopcheck.exe -- atomize --trace _build/ci-diff.ctr \
  --witness json:_build/ci-atom-bin.json > _build/ci-atom-bin.out
cmp _build/ci-atom-text.out _build/ci-atom-bin.out
cmp _build/ci-atom-text.json _build/ci-atom-bin.json

echo "== explain differential (single-pass vs two-pass, text vs binary) =="
# explain must print the same verdicts, HB self-checks and witness
# documents from the single-pass engine and the two-pass reference, and
# from the text and binary recordings of the codec stage — piped through
# stdin under --two-pass too (explain records its input first). It exits
# 1 on violations, identically in every run; cmp is the gate.
dune exec bin/coopcheck.exe -- explain tsp \
  --witness json:_build/ci-explain-single.json \
  > _build/ci-explain-single.out || [ $? -eq 1 ]
dune exec bin/coopcheck.exe -- explain tsp --two-pass \
  --witness json:_build/ci-explain-two.json \
  > _build/ci-explain-two.out || [ $? -eq 1 ]
cmp _build/ci-explain-single.out _build/ci-explain-two.out
cmp _build/ci-explain-single.json _build/ci-explain-two.json
dune exec bin/coopcheck.exe -- explain --trace _build/ci-diff.tr \
  --witness json:_build/ci-explain-text.json \
  > _build/ci-explain-text.out || [ $? -eq 1 ]
dune exec bin/coopcheck.exe -- explain --trace _build/ci-diff.ctr \
  --witness json:_build/ci-explain-bin.json \
  > _build/ci-explain-bin.out || [ $? -eq 1 ]
cmp _build/ci-explain-text.out _build/ci-explain-bin.out
cmp _build/ci-explain-text.json _build/ci-explain-bin.json
dune exec bin/coopcheck.exe -- explain --trace - --two-pass \
  < _build/ci-diff.ctr > _build/ci-explain-pipe.out || [ $? -eq 1 ]
cmp _build/ci-explain-text.out _build/ci-explain-pipe.out

echo "== replay differential (checkpointed vs stateless, identical output) =="
# Replay elision must not change what is explored or inferred: cached and
# stateless (--no-cache) runs must produce identical behaviour sets,
# yield sets and witness documents. Only explore's "dpor:" counter line
# legitimately differs (the stateless oracle replays more transitions),
# so it is stripped before the byte-for-byte compare.
dune exec bin/coopcheck.exe -- explore bank -t 2 -s 2 --dpor \
  > _build/ci-replay-cached.out
dune exec bin/coopcheck.exe -- explore bank -t 2 -s 2 --dpor --no-cache \
  > _build/ci-replay-stateless.out
grep -v '^dpor:' _build/ci-replay-cached.out > _build/ci-replay-cached.cmp
grep -v '^dpor:' _build/ci-replay-stateless.out \
  > _build/ci-replay-stateless.cmp
cmp _build/ci-replay-cached.cmp _build/ci-replay-stateless.cmp
# Each schedule's checker is fed the round's recorded prefix before its
# tail runs. philo's prefixes total 4 events over its rounds; sparse's
# total 202 and tsp's 136, so the checker carries real prefix state
# into the tail.
for w in "philo -t 2 -s 2" sparse tsp; do
  dune exec bin/coopcheck.exe -- infer $w \
    --witness json:_build/ci-replay-infer-cached.json \
    > _build/ci-replay-infer-cached.out
  dune exec bin/coopcheck.exe -- infer $w --no-cache \
    --witness json:_build/ci-replay-infer-stateless.json \
    > _build/ci-replay-infer-stateless.out
  cmp _build/ci-replay-infer-cached.out _build/ci-replay-infer-stateless.out
  cmp _build/ci-replay-infer-cached.json \
    _build/ci-replay-infer-stateless.json
done

echo "== explore and infer are -j independent (whole stdout, -j 1 vs -j 4) =="
# Both explorers search sequentially whatever the pool size, and infer
# merges its portfolio runs in schedule order, so every line —
# behaviours, state and execution counts, yields, the --stats tables —
# and infer's witness document must be byte-identical at -j 1 and -j 4.
dune exec bin/coopcheck.exe -- explore philo -t 3 -s 1 --stats -j 1 \
  > _build/ci-jobs-explore-j1.out
dune exec bin/coopcheck.exe -- explore philo -t 3 -s 1 --stats -j 4 \
  > _build/ci-jobs-explore-j4.out
cmp _build/ci-jobs-explore-j1.out _build/ci-jobs-explore-j4.out
dune exec bin/coopcheck.exe -- explore bank -t 2 -s 2 --dpor --stats -j 1 \
  > _build/ci-jobs-dpor-j1.out
dune exec bin/coopcheck.exe -- explore bank -t 2 -s 2 --dpor --stats -j 4 \
  > _build/ci-jobs-dpor-j4.out
cmp _build/ci-jobs-dpor-j1.out _build/ci-jobs-dpor-j4.out
for w in tsp bank; do
  for j in 1 4; do
    dune exec bin/coopcheck.exe -- infer $w --stats -j $j \
      --witness json:_build/ci-jobs-infer-$w-j$j.json \
      > _build/ci-jobs-infer-$w-j$j.out
  done
  cmp _build/ci-jobs-infer-$w-j1.out _build/ci-jobs-infer-$w-j4.out
  cmp _build/ci-jobs-infer-$w-j1.json _build/ci-jobs-infer-$w-j4.json
done

echo "== bench smoke (table1) =="
smoke bench/smoke

echo "== bench smoke (table3 --json, 2 domains, 2 workloads) =="
smoke bench/smoke-json
# Run twice more at 2 domains: each row's events and minor words/event
# are sampled on the calling domain after the parallel timing, so both
# runs must print the same numbers exactly.
for k in 1 2; do
  COOP_JOBS=2 dune exec bench/main.exe -- table3 --only philo,crypt \
    --json _build/ci-table3-$k.json > /dev/null
done
python3 -c '
import json, sys
rows = [{w["name"]: (w["events"], w["minor_words_per_event"])
         for w in json.load(open(f))["workloads"]} for f in sys.argv[1:]]
print("table3 rows at 2 domains: %s" % rows[0])
sys.exit(0 if rows[0] == rows[1] and len(rows[0]) == 2 else 1)' \
  _build/ci-table3-1.json _build/ci-table3-2.json

echo "== vclock bench smoke (flat vs persistent, json-verified) =="
smoke bench/smoke-vclock

echo "== pool bench smoke (static shards vs per-leaf tasks, json-verified) =="
smoke bench/smoke-pool

echo "== allocation-budget smoke (minor words/event vs recorded budget) =="
smoke bench/smoke-alloc

echo "== codec bench smoke (text vs binary throughput, json-verified) =="
smoke bench/smoke-codec

echo "== replay bench smoke (checkpointed vs stateless dpor, json-verified) =="
smoke bench/smoke-replay

echo "== perfbench smoke (check, replay, dpor; every op verified) =="
# Short closed-loop runs of the benchmark workloads. Each op's verdict is
# compared with perfbench/expected.txt (written by the stateless
# oracles); the stage fails unless the final JSON line reports no
# failed op.
for w in check replay dpor; do
  python3 perfbench/run.py --workload $w --seed 1 --seconds 3 \
    > _build/ci-perfbench-$w.out
  tail -n 1 _build/ci-perfbench-$w.out | python3 -c '
import json, sys
r = json.load(sys.stdin)
print("perfbench %s: %d attempted, %d failed" % (sys.argv[1], r["attempted"], r["failed"]))
sys.exit(0 if r["failed"] == 0 and r["attempted"] > 0 else 1)' $w
done

echo "== profile smoke (--profile-json / --chrome-trace, check and 2-domain infer) =="
smoke bench/smoke-profile

echo "== ci ok =="
