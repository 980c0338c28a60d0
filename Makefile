.PHONY: all test bench bench-smoke shapes bench-scale bench-write fault-smoke fuzz-smoke fuzz-index serve-smoke replica-smoke doc clean

all:
	dune build

test:
	dune runtest

# Full benchmark suite (slow; quotas per EXPERIMENTS.md).
bench:
	dune exec bench/main.exe

BENCH_JSON = BENCH_legality.json BENCH_query.json BENCH_session.json \
  BENCH_store.json BENCH_ingest.json BENCH_serve.json BENCH_scale.json \
  BENCH_write.json BENCH_replicate.json

# Tiny-quota sanity run of the perf experiments P1-P9 (a few seconds),
# which leaves the nine $(BENCH_JSON) files in _build/default/bench;
# then each must parse and list the key paths of the committed file of
# the same name, in the same order.  --force because the json is a side
# effect of the alias action, which dune would otherwise cache; the
# check runs here, before the next dune build deletes those undeclared
# outputs.
bench-smoke:
	dune build --force @bench-smoke
	python3 bench/json_keys.py _build/default/bench . $(BENCH_JSON)

# The theorem claims as a gate: T31, T42, T52, Q9 and C31 at full quota
# (about 40 s).  bench/main.exe exits 1 when a series that declares
# itself flat or linear, measured at four sizes or more, has a log-log
# slope above its margin: 0.38 (1.3x per doubling) for flat, 1.38 (2.6x)
# for linear.  Quadratic and polynomial series are recorded only.  Add
# --json to the same run to write BENCH_theorems.json.
shapes:
	dune exec bench/main.exe -- T31 T42 T52 Q9 C31

# The full P7 scale sweep (10^4 .. 10^6 entries): one store lifecycle
# per size - bulk load, queries, transactions, delta + full checkpoint,
# trusted recovery - with wall-clock and peak-heap per point.  Writes
# BENCH_scale.json into the working directory.
bench-scale:
	dune exec bench/main.exe -- --json P7

# The full P8 write-throughput sweep (10^4 .. 10^6 entries): steady-state
# single-entry transactions against a live session on chunked
# copy-on-write index versions, next to a rebuild-per-transaction
# baseline.  Writes BENCH_write.json into the working directory.
bench-write:
	dune exec bench/main.exe -- --json P8

# Daemon round-trip: initialize a throwaway store, serve it on an
# ephemeral port, drive brief mixed read/write traffic from concurrent
# clients, and shut down cleanly over the wire.  Then: an idle daemon
# must exit within 2 s of SIGTERM, and a daemon limited to 24 file
# descriptors must answer every request of a 30-client burst (its own
# uid tag, so its writes do not collide with the first burst's) and
# still answer a ping.  Last, on a 2521-entry store, one connection
# lists every entry (a reply over 64 KiB, which streams through the
# connection's 64 KiB block) and then one uid; both must match
# `query --store` on the same store.
serve-smoke:
	@dune build bin/ldapschema.exe
	@tmp=$$(mktemp -d); bin=_build/default/bin/ldapschema.exe; \
	trap 'rm -rf "$$tmp"' EXIT; \
	port_of() { for i in $$(seq 100); do \
	  p=$$(sed -n 's/^listening on [^:]*:\([0-9]*\) .*/\1/p' "$$1"); \
	  [ -n "$$p" ] && { echo "$$p"; return 0; }; sleep 0.1; \
	done; return 1; }; \
	$$bin generate --units 4 --persons 3 --out $$tmp/data.ldif \
	  --emit-schema $$tmp/wp.spec 2>/dev/null; \
	: > $$tmp/empty.ldif; \
	$$bin update --store $$tmp/store -s $$tmp/wp.spec -d $$tmp/data.ldif \
	  -o $$tmp/empty.ldif >/dev/null; \
	$$bin serve $$tmp/store --port 0 > $$tmp/serve.out 2>&1 & pid=$$!; \
	port=$$(port_of $$tmp/serve.out) || { echo "serve-smoke: daemon never bound"; kill $$pid; exit 1; }; \
	$$bin traffic --port $$port --clients 8 --requests 25 --write-ratio 0.3 || exit 1; \
	$$bin client --port $$port shutdown >/dev/null || exit 1; \
	wait $$pid; \
	$$bin serve $$tmp/store --port 0 > $$tmp/idle.out 2>&1 & pid=$$!; \
	port_of $$tmp/idle.out >/dev/null || { echo "serve-smoke: idle daemon never bound"; kill -9 $$pid; exit 1; }; \
	kill -TERM $$pid; \
	for i in $$(seq 20); do kill -0 $$pid 2>/dev/null || break; sleep 0.1; done; \
	if kill -0 $$pid 2>/dev/null; then \
	  echo "serve-smoke: idle daemon alive 2 s after SIGTERM"; kill -9 $$pid; exit 1; \
	fi; \
	wait $$pid || { echo "serve-smoke: SIGTERM stop exited non-zero"; exit 1; }; \
	(ulimit -n 24; exec $$bin serve $$tmp/store --port 0 > $$tmp/fd.out 2>&1) & pid=$$!; \
	port=$$(port_of $$tmp/fd.out) || { echo "serve-smoke: fd-limited daemon never bound"; kill -9 $$pid; exit 1; }; \
	out=$$(timeout 60 $$bin traffic --port $$port --clients 30 --requests 20 --write-ratio 0.3 --tag fd); rc=$$?; \
	if [ $$rc -eq 124 ]; then \
	  echo "serve-smoke: 30-client burst under ulimit -n 24 did not finish within 60 s"; kill -9 $$pid; exit 1; \
	elif [ $$rc -ne 0 ]; then \
	  echo "serve-smoke: requests failed in the 30-client burst under ulimit -n 24: $$out"; kill -9 $$pid; exit 1; \
	fi; \
	timeout 10 $$bin client --port $$port ping >/dev/null \
	  || { echo "serve-smoke: no ping answer after the burst under ulimit -n 24"; kill -9 $$pid; exit 1; }; \
	$$bin client --port $$port shutdown >/dev/null || exit 1; \
	wait $$pid; \
	$$bin generate --units 120 --persons 20 --out $$tmp/big.ldif \
	  --emit-schema $$tmp/big.spec 2>/dev/null; \
	$$bin update --store $$tmp/big -s $$tmp/big.spec -d $$tmp/big.ldif \
	  -o $$tmp/empty.ldif >/dev/null; \
	$$bin serve $$tmp/big --port 0 > $$tmp/big.out 2>&1 & pid=$$!; \
	port=$$(port_of $$tmp/big.out) || { echo "serve-smoke: big-store daemon never bound"; kill $$pid; exit 1; }; \
	$$bin client --port $$port query '(objectClass=*)' > $$tmp/all.wire \
	  && $$bin client --port $$port query '(uid=u3p4)' > $$tmp/one.wire \
	  || { echo "serve-smoke: big-store query failed"; kill $$pid; exit 1; }; \
	$$bin client --port $$port shutdown >/dev/null || exit 1; \
	wait $$pid; \
	[ "$$(head -1 $$tmp/all.wire)" = 2521 ] && [ $$(wc -c < $$tmp/all.wire) -gt 65536 ] \
	  && [ "$$(head -1 $$tmp/one.wire)" = 1 ] \
	  || { echo "serve-smoke: expected 2521 DNs (over 64 KiB), then 1"; exit 1; }; \
	for q in 'all (objectClass=*)' 'one (uid=u3p4)'; do \
	  f=$${q%% *}; \
	  $$bin query --store $$tmp/big "$${q#* }" 2>/dev/null | tail -n +2 > $$tmp/$$f.local; \
	  tail -n +2 $$tmp/$$f.wire | cmp -s - $$tmp/$$f.local \
	    || { echo "serve-smoke: served $${q#* } differs from query --store"; exit 1; }; \
	done; \
	echo "serve-smoke: ok (daemon exited cleanly; SIGTERM stops it idle; it survives running out of descriptors; a listing over 64 KiB, then a one-DN one, match the store)"

# Replication round-trip: serve a store with --replicate, bootstrap a
# replica over the wire, drive writes, kill -9 the replica mid-stream,
# restart it (resume from its durable lsn, no re-bootstrap), drive more
# writes, and require both sides to converge to the same lsn and the
# same query answers, and the replica to refuse a checkpoint as
# read-only.
replica-smoke:
	@dune build bin/ldapschema.exe
	@tmp=$$(mktemp -d); bin=_build/default/bin/ldapschema.exe; \
	trap 'rm -rf "$$tmp"' EXIT; \
	$$bin generate --units 4 --persons 3 --out $$tmp/data.ldif \
	  --emit-schema $$tmp/wp.spec 2>/dev/null; \
	: > $$tmp/empty.ldif; \
	$$bin update --store $$tmp/store -s $$tmp/wp.spec -d $$tmp/data.ldif \
	  -o $$tmp/empty.ldif >/dev/null; \
	$$bin serve $$tmp/store --port 0 --replicate > $$tmp/serve.out 2>&1 & spid=$$!; \
	port=""; for i in $$(seq 100); do \
	  port=$$(sed -n 's/^listening on [^:]*:\([0-9]*\) .*/\1/p' $$tmp/serve.out); \
	  [ -n "$$port" ] && break; sleep 0.1; \
	done; \
	[ -n "$$port" ] || { echo "replica-smoke: primary never bound"; kill $$spid; exit 1; }; \
	$$bin replica --from 127.0.0.1:$$port --store $$tmp/rstore --port 0 \
	  > $$tmp/replica.out 2>&1 & rpid=$$!; \
	$$bin traffic --port $$port --clients 4 --requests 20 --write-ratio 0.5 >/dev/null || exit 1; \
	kill -9 $$rpid 2>/dev/null; wait $$rpid 2>/dev/null; \
	$$bin traffic --port $$port --clients 2 --requests 10 --write-ratio 1.0 --tag u2 >/dev/null || exit 1; \
	$$bin replica --from 127.0.0.1:$$port --store $$tmp/rstore --port 0 \
	  > $$tmp/replica2.out 2>&1 & rpid=$$!; \
	rport=""; for i in $$(seq 100); do \
	  rport=$$(sed -n 's/^replica listening on [^:]*:\([0-9]*\) .*/\1/p' $$tmp/replica2.out); \
	  [ -n "$$rport" ] && break; sleep 0.1; \
	done; \
	[ -n "$$rport" ] || { echo "replica-smoke: replica never bound"; kill $$spid; exit 1; }; \
	plsn=$$($$bin client --port $$port stats | sed -n 's/^lsn //p'); \
	alsn=""; for i in $$(seq 100); do \
	  alsn=$$($$bin client --port $$rport stats | sed -n 's/^applied_lsn //p'); \
	  [ "$$alsn" = "$$plsn" ] && break; sleep 0.1; \
	done; \
	[ "$$alsn" = "$$plsn" ] || { echo "replica-smoke: never converged (primary $$plsn, replica $$alsn)"; kill $$spid $$rpid; exit 1; }; \
	pq=$$($$bin client --port $$port query '(objectClass=person)' | head -1); \
	rq=$$($$bin client --port $$rport query '(objectClass=person)' | head -1); \
	[ "$$pq" = "$$rq" ] || { echo "replica-smoke: answers diverge (primary $$pq, replica $$rq)"; kill $$spid $$rpid; exit 1; }; \
	ro=$$($$bin client --port $$rport checkpoint 2>&1 >/dev/null); rc=$$?; \
	{ [ $$rc -eq 1 ] && echo "$$ro" | grep -q 'read-only replica'; } || { echo "replica-smoke: replica checkpoint not refused read-only (exit $$rc: $$ro)"; kill $$spid $$rpid; exit 1; }; \
	$$bin client --port $$rport shutdown >/dev/null || exit 1; \
	wait $$rpid; \
	$$bin client --port $$port shutdown >/dev/null || exit 1; \
	wait $$spid; \
	echo "replica-smoke: ok (killed, reconnected, converged at lsn $$plsn, $$pq persons both sides)"

# Crash-recovery tests in isolation: the durable-store suite drives every
# WAL/checkpoint scenario through the fault-injecting Io harness (torn
# writes, bit flips, crash at every mutating operation).
fault-smoke:
	dune exec test/test_store.exe

# Quick differential-fuzzing pass over every registered oracle.  Exits
# non-zero if any oracle pair disagrees.
fuzz-smoke:
	dune exec -- ldapschema fuzz --budget 200 --seed 42

# The index-version gate: the differential oracles that read index
# versions made by splices (rank table, chunk walks, χ sweeps, scoped
# search, memo migration) at budget 500.
fuzz-index:
	dune exec -- ldapschema fuzz --budget 500 \
	  --oracle index-apply-vs-rebuild --oracle plan-vs-naive \
	  --oracle query-vs-naive --oracle search-vs-naive \
	  --oracle monitor-vs-recheck

# API documentation (requires odoc; dune reports a clear error if the
# toolchain lacks it).
doc:
	dune build @doc

clean:
	dune clean
