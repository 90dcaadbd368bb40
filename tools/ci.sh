#!/usr/bin/env bash
# CI gate with two stages:
#
#   tsan  — build the ThreadSanitizer preset and run the miner's
#           thread-setting tests, the sharded-merge oracle and the
#           classifier/serving thread-safety tests under it. MineTopkRGS
#           is serial and must give the same lists whatever `threads` is
#           set to, and the serving stack promises lock-free
#           shared-classifier Predict; this stage is the race detector
#           backing the serving side — run it before merging anything
#           touching src/mine/, src/scale/, src/serve/ or src/util/arena.h.
#
#   fuzz  — build the fuzz preset (ASan+UBSan, plus libFuzzer when the
#           compiler is clang) and replay the committed seed + regression
#           corpus through every ingestion fuzz target. Every malformed
#           corpus file must come back as a non-OK Status with no abort and
#           no sanitizer report. When clang is available the stage also
#           runs each libFuzzer target for a short time-boxed exploration.
#
#   lint  — static-analysis gate (DESIGN.md §11–12, §16). Runs every
#           dependency-free Python check through the
#           tools/lint/run_all.py orchestrator (per-check wall-time,
#           one compile_commands.json export, failures collected rather
#           than masking each other): include discipline
#           (check_includes.py), the determinism linter self-test + gate
#           (determinism_lint.py — unordered iteration, pointer
#           keys, ambient entropy and unordered FP reductions in the
#           deterministic zones, with a shrink-only baseline), the cast
#           linter self-test + gate (cast_lint.py — unchecked
#           integer narrowing, C-casts and signed/size comparisons across
#           src/, shrink-only baseline, src/serve and src/synth pinned at
#           zero), the bench-gate self-tests (gate_selftest.py — the
#           redundancy/RSS/coverage gates against pass/fail/vacuous
#           fixtures, so a broken gate can never silently pass), the
#           redundant-work-ratio gate (redundancy_gate.py —
#           8-thread nodes_visited over serial, ceiling 1.15, from the
#           committed bench/BENCH_topk.json), the out-of-core RSS gate
#           (rss_gate.py — mine peak RSS within its
#           --memory-budget and shard-count-invariant digests, from the
#           committed bench/BENCH_scale.json), and the hot-path purity
#           lint self-test + gate (astlint.py, see the astlint stage).
#           Then a
#           warnings-as-errors build of the lint preset, which also
#           enforces -Werror=unused-result on the [[nodiscard]] Status
#           surface. When a clang toolchain is on PATH it additionally
#           compiles src/ with -Wthread-safety -Werror (the
#           thread-safety-annotation gate) and runs clang-tidy against the
#           exported compile_commands.json, and requires the
#           deliberately-dangling lifetime fixture
#           (tools/lint/testdata/lifetime_fixture.cc) to FAIL compiling —
#           proof the TKRGS_LIFETIME_BOUND/GSL annotations still bite;
#           without clang those sub-checks print a skip notice instead of
#           failing.
#
#   astlint — hot-path purity gate (DESIGN.md §16) on its own:
#           tools/lint/astlint.py --self-test (the hazard/clean fixture
#           pair must still trip every check), then the call-graph lint
#           over src/ — no allocation, high-rank locks, blocking I/O,
#           expensive implicit copies, or formatted Status construction
#           reachable from any TKRGS_HOT root without a justified
#           NOLINT(hotpath: ...). Uses libclang over the lint preset's
#           compile_commands.json when the clang Python bindings are
#           importable; otherwise falls back to the internal tokenizer
#           frontend with an explicit notice (the checks still run, the
#           call graph is textual rather than AST-exact).
#
#   analyze — clang static analyzer (--analyze, the scan-build engine)
#           over every src/ TU in the lint preset's compile_commands.json,
#           gated by the triaged suppression baseline in
#           tools/lint/analyze_baseline.txt. Skips with a notice when no
#           clang is on PATH.
#
#   coverage — build the coverage preset (gcc --coverage), run the full
#           suite, and enforce the per-directory line-coverage floors in
#           tools/lint/coverage_floors.json via
#           tools/lint/coverage_gate.py (src/mine/ and src/serve/ must
#           stay covered).
#
#   ubsan — build with -fsanitize=undefined -fno-sanitize-recover=all
#           (every UB report is fatal, not a log line) and run the full
#           test suite under it.
#
#   intsan — build with clang -fsanitize=integer (implicit truncations,
#           sign changes and unsigned wraps that UBSan's core does not
#           flag), -fno-sanitize-recover=all, gated by the triaged
#           modular-arithmetic ignorelist in
#           tools/lint/intsan_ignorelist.txt; runs the full suite plus a
#           convert/shard-mine round trip. Skips with a notice when no
#           clang is on PATH (gcc has no -fsanitize=integer).
#
#   simd  — build the release preset and run the full tier-1 suite twice:
#           once with the runtime-dispatched best SIMD tier and once with
#           TOPKRGS_SIMD=scalar forcing the portable reference kernels
#           (the only code path on non-x86). The miner promises bit-identical
#           output across kernel tiers and row-set representations; this
#           stage is the gate backing that promise — run it before merging
#           anything touching src/util/bitkernels.* or src/util/rowset.*.
#
#   scale — out-of-core engine gate. Build the release preset, run the
#           reduced scale profile through bench_scale (streamed ingest,
#           tkds convert, shard-count sweep) into a fresh record and hold
#           it to tools/lint/rss_gate.py, run the sharded-vs-single-shot
#           oracle tests with TOPKRGS_SLOW_TESTS=1 (the reduced-profile
#           sweep that tier-1 skips) and the FindLB oracle's sweep over
#           every RCBT call on the four paper profiles, and round-trip a
#           toy dataset through topkrgs-convert + topkrgs-shard-mine
#           checking that the text and tkds paths report the same
#           digest. Time-boxed via
#           SCALE_SECONDS (default 120, the bench point budget).
#
#   serve — build the asan preset, run the serving-layer tests under it,
#           then smoke-test the real topkrgs-serve binary end to end:
#           train a TINY model, start the server on an ephemeral port,
#           hit /healthz, /v1/predict and /metrics over real sockets, and
#           shut it down cleanly (SIGTERM). Also builds the release preset
#           load-generator bench and refreshes bench/BENCH_serve.json.
#
# Usage: tools/ci.sh [lint|astlint|analyze|coverage|ubsan|intsan|tsan|fuzz|simd|scale|serve|all]
#        [extra ctest -R pattern]

set -euo pipefail
cd "$(dirname "$0")/.."

STAGE="${1:-all}"
FUZZ_SECONDS="${FUZZ_SECONDS:-60}"

run_lint() {
  echo "== configure (lint preset: warnings-as-errors, compile_commands) =="
  cmake --preset lint >/dev/null

  # Every Python lint and gate — include discipline, determinism, cast,
  # the bench-record gates plus their self-tests, and the hot-path
  # purity lint — runs through the orchestrator, which times each check
  # and prints a summary instead of stopping at the first failure. It
  # reuses the compile_commands.json the configure above just exported.
  python3 tools/lint/run_all.py

  echo "== warnings-as-errors build (-Werror, -Werror=unused-result) =="
  cmake --build --preset lint -j

  # The thread-safety-annotation and clang-tidy gates need a clang
  # toolchain; degrade with an explicit notice rather than a silent pass
  # so CI logs show exactly which checks ran.
  if command -v clang++ >/dev/null 2>&1; then
    echo "== clang -Wthread-safety -Werror over src/ =="
    local tsa_dir
    tsa_dir="$(mktemp -d)"
    # shellcheck disable=SC2064
    trap "rm -rf '${tsa_dir}'" RETURN
    cmake -S . -B "${tsa_dir}" -G Ninja \
      -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DTOPKRGS_WERROR=ON >/dev/null
    cmake --build "${tsa_dir}" -j --target topkrgs
  else
    echo "(clang++ not on PATH — -Wthread-safety gate skipped; annotations"
    echo " compile to nothing under this toolchain and were not analyzed)"
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (.clang-tidy check set, warnings-as-errors) =="
    git ls-files 'src/*.cc' | xargs clang-tidy -p build-lint --quiet
  else
    echo "(clang-tidy not on PATH — tidy gate skipped)"
  fi

  # Lifetime negative-compile gate: the deliberately-dangling fixture MUST
  # fail to compile once TKRGS_LIFETIME_BOUND / TKRGS_GSL_* expand to real
  # clang attributes. gcc expands them to nothing, so only clang can
  # observe the annotations.
  if command -v clang++ >/dev/null 2>&1; then
    echo "== lifetime annotations (dangling fixture must NOT compile) =="
    local lifetime_log
    lifetime_log="$(mktemp)"
    if clang++ -std=c++20 -fsyntax-only -Isrc \
         -Werror=dangling -Werror=dangling-gsl \
         tools/lint/testdata/lifetime_fixture.cc 2> "${lifetime_log}"; then
      echo "lifetime gate FAILED: the deliberately-dangling fixture compiled"
      echo "cleanly — the lifetimebound/gsl annotations are not being applied."
      rm -f "${lifetime_log}"
      exit 1
    fi
    if ! grep -qi "dangling\|destroyed at the end" "${lifetime_log}"; then
      echo "lifetime gate FAILED: fixture failed to compile for the wrong"
      echo "reason (expected a -Wdangling diagnostic):"
      cat "${lifetime_log}"
      rm -f "${lifetime_log}"
      exit 1
    fi
    echo "lifetime gate OK: every dangling use in the fixture was rejected."
    rm -f "${lifetime_log}"
  else
    echo "(clang++ not on PATH — lifetime negative-compile gate skipped; the"
    echo " lifetimebound annotations expand to nothing under this toolchain)"
  fi
  echo "lint gate passed: include discipline clean, determinism lint clean," \
       "warnings-as-errors build green."
}

run_astlint() {
  # Hot-path purity gate on its own (the lint stage also runs it via
  # run_all.py): self-test first, then the call-graph lint over src/.
  # With libclang the call graph is AST-exact; without it astlint's
  # internal frontend still enforces every check and prints an explicit
  # notice that the analysis is textual on this machine.
  if [ ! -f build-lint/compile_commands.json ]; then
    echo "== configure (lint preset, for compile_commands.json) =="
    cmake --preset lint >/dev/null
  fi
  echo "== astlint self-test (hot-path fixture pair must still trip every check) =="
  python3 tools/lint/astlint.py --self-test
  echo "== hot-path purity gate (tools/lint/astlint.py) =="
  python3 tools/lint/astlint.py --compile-commands build-lint/compile_commands.json
  echo "astlint gate done."
}

run_analyze() {
  # The gate needs compile_commands.json from the lint preset; configure
  # it if a previous lint run hasn't already.
  if [ ! -f build-lint/compile_commands.json ]; then
    echo "== configure (lint preset, for compile_commands.json) =="
    cmake --preset lint >/dev/null
  fi
  echo "== clang static analyzer over src/ (tools/lint/analyze_gate.py) =="
  python3 tools/lint/analyze_gate.py
  echo "analyze gate done."
}

run_coverage() {
  echo "== configure (coverage) =="
  cmake --preset coverage
  echo "== build (coverage) =="
  cmake --build --preset coverage -j
  echo "== full suite under --coverage instrumentation =="
  ctest --test-dir build-coverage --output-on-failure -j "$(nproc)"
  echo "== per-directory line-coverage floors (tools/lint/coverage_gate.py) =="
  python3 tools/lint/coverage_gate.py
  echo "coverage gate passed: directory floors met."
}

run_ubsan() {
  echo "== configure (ubsan) =="
  cmake --preset ubsan
  echo "== build (ubsan: -fsanitize=undefined -fno-sanitize-recover=all) =="
  cmake --build --preset ubsan -j
  echo "== full suite with fatal-on-report UBSan =="
  ctest --test-dir build-ubsan --output-on-failure -j "$(nproc)"
  echo "ubsan gate passed: no undefined behavior reported."
}

run_intsan() {
  # -fsanitize=integer (implicit conversions + unsigned wraps, beyond
  # UBSan's signed-overflow core) is clang-only; gcc has no equivalent.
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "(clang++ not on PATH — intsan stage skipped; -fsanitize=integer"
    echo " has no gcc equivalent. The cast lint and the ubsan stage still"
    echo " cover signed overflow and the checked-math call sites.)"
    return 0
  fi
  echo "== configure (intsan) =="
  cmake --preset intsan
  echo "== build (intsan: clang -fsanitize=integer -fno-sanitize-recover) =="
  cmake --build --preset intsan -j
  echo "== full suite with fatal-on-report IntegerSanitizer =="
  ctest --test-dir build-intsan --output-on-failure -j "$(nproc)"
  echo "== reduced scale profile under IntegerSanitizer =="
  local tmp
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '${tmp}'" RETURN
  printf '1\t0 1 2\n1\t0 1 2\n1\t0 1\n1\t0 2\n1\t1 2\n0\t3 4\n0\t3\n0\t4\n' \
    > "${tmp}/toy.items"
  build-intsan/tools/topkrgs-convert --input "${tmp}/toy.items" \
    --output "${tmp}/toy.tkds" >/dev/null
  build-intsan/tools/topkrgs-shard-mine --data "${tmp}/toy.tkds" \
    --minsup 2 --k 3 --shards 2 >/dev/null
  echo "intsan gate passed: no implicit-conversion or overflow reports" \
       "outside the triaged ignorelist."
}

run_tsan() {
  local pattern="${1:-TopkParallel}"
  echo "== configure (tsan) =="
  cmake --preset tsan
  echo "== build (tsan) =="
  cmake --build --preset tsan -j
  echo "== miner and thread-safety tests under ThreadSanitizer (-R ${pattern}) =="
  ctest --test-dir build-tsan -R "${pattern}" --output-on-failure
  echo "tsan gate passed: no data races, miner results unchanged by the" \
       "threads setting."
}

run_fuzz() {
  echo "== configure (fuzz) =="
  cmake --preset fuzz
  echo "== build (fuzz) =="
  cmake --build --preset fuzz -j
  echo "== corpus replay under ASan/UBSan =="
  ctest --test-dir build-fuzz -R "FuzzReplay|CorpusReplay" --output-on-failure

  # Coverage-guided exploration needs the libFuzzer runtime (clang only);
  # with gcc the replay above is the whole stage.
  if grep -q "TOPKRGS_HAS_LIBFUZZER:INTERNAL=1" build-fuzz/CMakeCache.txt 2>/dev/null; then
    echo "== time-boxed libFuzzer runs (${FUZZ_SECONDS}s per target) =="
    for target in discretization cba_model rcbt_model tsv_dataset item_dataset predict_request; do
      echo "-- fuzz_${target}"
      "build-fuzz/tests/fuzz/fuzz_${target}" \
        -max_total_time="${FUZZ_SECONDS}" -rss_limit_mb=2048 \
        "tests/fuzz/seeds/${target}" "tests/fuzz/regressions/${target}"
    done
  else
    echo "(libFuzzer runtime unavailable — corpus replay only)"
  fi
  echo "fuzz gate passed: corpus parses to Status, no crashes, no sanitizer reports."
}

run_simd() {
  echo "== configure (release) =="
  cmake --preset release >/dev/null
  echo "== build (release) =="
  cmake --build --preset release -j
  echo "== full suite, runtime-dispatched SIMD tier =="
  ctest --test-dir build-release --output-on-failure -j "$(nproc)"
  echo "== full suite, TOPKRGS_SIMD=scalar (portable reference kernels) =="
  TOPKRGS_SIMD=scalar ctest --test-dir build-release --output-on-failure \
    -j "$(nproc)"
  echo "simd gate passed: suite green on both the dispatched tier and the" \
       "forced scalar fallback."
}

run_scale() {
  echo "== configure (release) =="
  cmake --preset release >/dev/null
  echo "== build (release: bench_scale, scale tools, oracle tests) =="
  cmake --build --preset release -j --target bench_scale \
    topkrgs_convert_tool topkrgs_shard_mine_tool shard_merge_test \
    find_lb_oracle_test

  local tmp
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '${tmp}'" RETURN

  echo "== reduced-profile bench (streamed ingest + shard sweep) =="
  TOPKRGS_BENCH_BUDGET_S="${SCALE_SECONDS:-120}" \
    build-release/bench/bench_scale --out "${tmp}/BENCH_scale.json"
  echo "== RSS + determinism gate over the fresh record =="
  python3 tools/lint/rss_gate.py "${tmp}/BENCH_scale.json"

  echo "== sharded-vs-single-shot oracle (incl. reduced-profile sweep) =="
  TOPKRGS_SLOW_TESTS=1 ctest --test-dir build-release \
    -R "ShardMerge" --output-on-failure

  echo "== FindLB vs its breadth-first oracle on every paper-profile call =="
  TOPKRGS_SLOW_TESTS=1 ctest --test-dir build-release \
    -R "FindLbOracle" --output-on-failure

  echo "== convert / shard-mine round trip (text vs tkds digest) =="
  printf '1\t0 1 2\n1\t0 1 2\n1\t0 1\n1\t0 2\n1\t1 2\n0\t3 4\n0\t3\n0\t4\n' \
    > "${tmp}/toy.items"
  build-release/tools/topkrgs-convert --input "${tmp}/toy.items" \
    --output "${tmp}/toy.tkds" >/dev/null
  local text_digest tkds_digest
  text_digest="$(build-release/tools/topkrgs-shard-mine \
    --data "${tmp}/toy.items" --minsup 2 --k 3 --shards 3 \
    | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')"
  tkds_digest="$(build-release/tools/topkrgs-shard-mine \
    --data "${tmp}/toy.tkds" --minsup 2 --k 3 --shards 2 \
    | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')"
  [ -n "${text_digest}" ] || { echo "shard-mine printed no digest"; exit 1; }
  [ "${text_digest}" = "${tkds_digest}" ] || {
    echo "digest mismatch: text=${text_digest} tkds=${tkds_digest}"; exit 1; }
  echo "scale gate passed: bench within budget, oracle green, CLI round" \
       "trip digest ${text_digest} invariant across formats and shard counts."
}

run_serve() {
  echo "== configure (asan) =="
  cmake --preset asan
  echo "== build (asan) =="
  cmake --build --preset asan -j
  echo "== serving-layer tests under ASan/UBSan =="
  ctest --test-dir build-asan --output-on-failure \
    -R "Serve|Http|Json|ParsePredictRequest|ServableModel|ModelRegistry|Executor|PredictionService|ThreadSafety|UniverseMismatch"

  echo "== HTTP smoke test against the real binary =="
  local tmp
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '${tmp}'" RETURN
  build-asan/tools/topkrgs-generate --profile TINY --seed 9 \
    --train "${tmp}/train.tsv" --test "${tmp}/test.tsv" >/dev/null
  build-asan/tools/topkrgs-classify --train "${tmp}/train.tsv" \
    --test "${tmp}/test.tsv" --model rcbt --k 2 --nl 3 \
    --save-model "${tmp}/model.txt" \
    --save-discretization "${tmp}/disc.txt" >/dev/null
  build-asan/tools/topkrgs-serve --model "${tmp}/model.txt" \
    --discretization "${tmp}/disc.txt" --port 0 --workers 2 \
    --max-seconds 120 > "${tmp}/serve.log" &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 50); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "${tmp}/serve.log")"
    [ -n "${port}" ] && break
    sleep 0.2
  done
  [ -n "${port}" ] || { echo "server never came up"; cat "${tmp}/serve.log"; exit 1; }
  python3 - "${port}" <<'PY'
import http.client, json, sys
port = int(sys.argv[1])

def req(method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    data = resp.read()
    conn.close()
    return resp.status, data

status, data = req("GET", "/healthz")
assert status == 200 and data == b"ok\n", (status, data)
row = [0.0] * 512  # >= min_genes for the TINY model, all finite
status, data = req("POST", "/v1/predict", json.dumps({"rows": [row]}))
assert status == 200, (status, data)
predictions = json.loads(data)["predictions"]
assert len(predictions) == 1 and "label" in predictions[0], data
status, data = req("GET", "/metrics")
assert status == 200 and b"topkrgs_requests_total 1" in data, data
status, data = req("POST", "/v1/predict", "{not json")
assert status == 400, (status, data)
print("smoke test OK: healthz, predict, metrics, malformed-request 400")
PY
  kill -TERM "${serve_pid}"
  wait "${serve_pid}"
  grep -q "shut down cleanly" "${tmp}/serve.log" \
    || { echo "server did not shut down cleanly"; cat "${tmp}/serve.log"; exit 1; }

  echo "== load-generator bench (release preset) =="
  cmake --preset release >/dev/null
  cmake --build --preset release -j --target bench_serve_qps
  (cd bench && ../build-release/bench/bench_serve_qps BENCH_serve.json)
  echo "serve gate passed: tests green under ASan, HTTP smoke OK, bench refreshed."
}

case "${STAGE}" in
  lint) run_lint ;;
  astlint) run_astlint ;;
  analyze) run_analyze ;;
  coverage) run_coverage ;;
  ubsan) run_ubsan ;;
  intsan) run_intsan ;;
  tsan) run_tsan "${2:-TopkParallel|ThreadSafety|ShardMerge}" ;;
  fuzz) run_fuzz ;;
  simd) run_simd ;;
  scale) run_scale ;;
  serve) run_serve ;;
  all)
    run_lint
    run_astlint
    run_analyze
    run_tsan "${2:-TopkParallel|ThreadSafety|ShardMerge}"
    run_ubsan
    run_intsan
    run_fuzz
    run_simd
    run_scale
    run_serve
    run_coverage
    ;;
  *)
    # Back-compat: a bare ctest pattern as $1 runs the tsan stage with it.
    run_tsan "${STAGE}"
    ;;
esac

echo "CI gate passed."
