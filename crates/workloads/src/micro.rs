//! Micro-benchmark applications (§4.1–§4.4).
//!
//! Each figure gets a matched pair of apps: the S-Store implementation
//! using the architectural feature under test, and the H-Store
//! implementation doing the same logical work without it.

use sstore_common::{tuple, DataType, Schema, Tuple, Value};
use sstore_engine::App;

fn v_schema() -> Schema {
    Schema::of(&[("v", DataType::Int)])
}

// ---------------------------------------------------------------------
// Figure 5: EE-trigger chains
// ---------------------------------------------------------------------

/// S-Store variant: one border SP whose single SQL insert starts a chain
/// of `n` EE triggers entirely inside the EE (stage k moves tuples from
/// stream k to stream k+1; the last trigger lands in the `sink` table;
/// consumed stream tuples are garbage-collected automatically).
///
/// `n == 0` degenerates to inserting straight into `sink` — identical
/// work to H-Store's, which anchors both curves at the same point.
pub fn ee_chain_sstore(n: usize) -> App {
    let mut b = App::builder().table("sink", v_schema());
    // Driver needs a border stream (PE trigger target) to be invoked by
    // ingestion; the chain streams are s1..=sn.
    b = b.stream("chain_in", v_schema());
    for k in 1..=n {
        b = b.stream(&format!("s{k}"), v_schema());
    }
    let first_target = if n == 0 { "sink".to_owned() } else { "s1".to_owned() };
    let ins_sql = format!("INSERT INTO {first_target} (v) VALUES (?)");
    b = b.proc("driver", &[("ins", &ins_sql)], &[], move |ctx| {
        let rows = ctx.input().to_vec();
        for r in rows {
            ctx.sql("ins", &[r.get(0).clone()])?;
        }
        Ok(())
    });
    b = b.pe_trigger("chain_in", "driver");
    for k in 1..=n {
        let target = if k == n { "sink".to_owned() } else { format!("s{}", k + 1) };
        let sql = format!("INSERT INTO {target} (v) SELECT v + 1 FROM s{k}");
        b = b.ee_trigger(&format!("s{k}"), &[&sql]);
    }
    b.build().expect("ee_chain_sstore app is valid")
}

/// Partitioned variant of [`ee_chain_sstore`] for the scaling bench
/// (`--bin scaling`): identical `n`-stage EE-trigger chain, but
/// `chain_in` carries a partition key (`v` itself), so a mixed-key
/// batch hash-splits into per-partition sub-batches and the chains run
/// on all partitions in parallel. No exchange edges: each sub-batch's
/// workflow stays on its partition — the embarrassingly-parallel upper
/// bound for partition scaling.
pub fn ee_chain_partitioned(n: usize) -> App {
    let mut b = App::builder().table("sink", v_schema());
    b = b.stream_partitioned("chain_in", v_schema(), "v");
    for k in 1..=n {
        b = b.stream(&format!("s{k}"), v_schema());
    }
    let first_target = if n == 0 { "sink".to_owned() } else { "s1".to_owned() };
    let ins_sql = format!("INSERT INTO {first_target} (v) VALUES (?)");
    b = b.proc("driver", &[("ins", &ins_sql)], &[], move |ctx| {
        let rows = ctx.input().to_vec();
        for r in rows {
            ctx.sql("ins", &[r.get(0).clone()])?;
        }
        Ok(())
    });
    b = b.pe_trigger("chain_in", "driver");
    for k in 1..=n {
        let target = if k == n { "sink".to_owned() } else { format!("s{}", k + 1) };
        let sql = format!("INSERT INTO {target} (v) SELECT v + 1 FROM s{k}");
        b = b.ee_trigger(&format!("s{k}"), &[&sql]);
    }
    b.build().expect("ee_chain_partitioned app is valid")
}

/// H-Store variant: same `n`-stage pipeline, but every stage is a
/// separate PE→EE statement (an INSERT…SELECT plus an explicit DELETE,
/// since there is no automatic stream GC): `1 + 2n` EE round trips per
/// transaction instead of 1.
pub fn ee_chain_hstore(n: usize) -> App {
    let mut b = App::builder().table("sink", v_schema()).stream("chain_in", v_schema());
    for k in 1..=n {
        b = b.table(&format!("t{k}"), v_schema());
    }
    let first_target = if n == 0 { "sink".to_owned() } else { "t1".to_owned() };
    let mut stmts: Vec<(String, String)> = vec![(
        "ins".to_owned(),
        format!("INSERT INTO {first_target} (v) VALUES (?)"),
    )];
    for k in 1..=n {
        let target = if k == n { "sink".to_owned() } else { format!("t{}", k + 1) };
        stmts.push((format!("mov{k}"), format!("INSERT INTO {target} (v) SELECT v + 1 FROM t{k}")));
        stmts.push((format!("del{k}"), format!("DELETE FROM t{k}")));
    }
    let stmt_refs: Vec<(&str, &str)> =
        stmts.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let stages = n;
    b = b.proc("driver", &stmt_refs, &[], move |ctx| {
        let rows = ctx.input().to_vec();
        for r in rows {
            ctx.sql("ins", &[r.get(0).clone()])?;
            for k in 1..=stages {
                ctx.sql(&format!("mov{k}"), &[])?;
                ctx.sql(&format!("del{k}"), &[])?;
            }
        }
        Ok(())
    });
    b = b.pe_trigger("chain_in", "driver");
    b.build().expect("ee_chain_hstore app is valid")
}

// ---------------------------------------------------------------------
// Figures 6 & 9: PE-trigger chains
// ---------------------------------------------------------------------

/// A workflow of `n` identical pass-through stored procedures connected
/// by streams (Figure 6a). Under S-Store the chain advances through PE
/// triggers; under H-Store mode the client must drive every step.
/// The final SP records arrivals in `done` so results are observable.
pub fn pe_chain(n: usize) -> App {
    assert!(n >= 1, "a workflow needs at least one SP");
    let mut b = App::builder().table("done", v_schema()).stream("wf_in", v_schema());
    for k in 1..n {
        b = b.stream(&format!("w{k}"), v_schema());
    }
    for k in 0..n {
        let name = format!("sp{}", k + 1);
        let is_last = k == n - 1;
        if is_last {
            b = b.proc(&name, &[("fin", "INSERT INTO done (v) VALUES (?)")], &[], |ctx| {
                let rows = ctx.input().to_vec();
                for r in rows {
                    ctx.sql("fin", &[r.get(0).clone()])?;
                }
                Ok(())
            });
        } else {
            let out = format!("w{}", k + 1);
            let out_for_body = out.clone();
            b = b.proc(&name, &[], &[&out], move |ctx| {
                let rows: Vec<Tuple> = ctx.input().to_vec();
                ctx.emit(&out_for_body, rows)
            });
        }
        let in_stream = if k == 0 { "wf_in".to_owned() } else { format!("w{k}") };
        b = b.pe_trigger(&in_stream, &name);
    }
    b.build().expect("pe_chain app is valid")
}

// ---------------------------------------------------------------------
// Cross-partition dataflow: the exchange pipeline
// ---------------------------------------------------------------------

/// How [`exchange_pipeline`]'s first stage re-keys a row: the new
/// partition key is `v % 3` (so consecutive values scatter across
/// partitions) and the value doubles.
pub fn exchange_rekey(v: i64) -> (i64, i64) {
    (v % 3, v * 2)
}

/// A two-stage workflow whose stages run on *different* partitions:
///
/// ```text
/// xin (border, keyed k) ─▶ sp1 ─▶ xmid (exchange, keyed k2) ─▶ sp2 ─▶ xout
/// ```
///
/// `sp1` re-keys each `(k, v)` row to `(k2, v2) =` [`exchange_rekey`]`(v)`
/// and emits it onto the exchange stream; the engine ships each row to
/// the partition `k2` hashes to, where `sp2` records it in the `xout`
/// table. On one partition this degenerates to an ordinary PE-trigger
/// chain — which is exactly the oracle the multi-partition tests
/// compare against.
pub fn exchange_pipeline() -> App {
    let kv = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    App::builder()
        .stream_partitioned("xin", kv.clone(), "k")
        .exchange_stream("xmid", kv.clone(), "k")
        .table("xout", kv)
        .proc("sp1", &[], &["xmid"], |ctx| {
            let out: Vec<Tuple> = ctx
                .input()
                .iter()
                .map(|r| {
                    let (k2, v2) = exchange_rekey(r.get(1).as_int().unwrap());
                    tuple![k2, v2]
                })
                .collect();
            ctx.emit("xmid", out)
        })
        .proc("sp2", &[("ins", "INSERT INTO xout (k, v) VALUES (?, ?)")], &[], |ctx| {
            let rows = ctx.input().to_vec();
            for r in rows {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("xin", "sp1")
        .pe_trigger("xmid", "sp2")
        .build()
        .expect("exchange_pipeline app is valid")
}

// ---------------------------------------------------------------------
// Figure 7: native vs manual windows
// ---------------------------------------------------------------------

/// Native windowing: the border SP's single statement inserts into a
/// window table; staging, sliding, and expiration happen inside the EE.
pub fn window_native(size: usize, slide: usize) -> App {
    App::builder()
        .stream("win_in", v_schema())
        .window("w", "wproc", v_schema(), size, slide)
        .proc("wproc", &[("ins", "INSERT INTO w (v) VALUES (?)")], &[], |ctx| {
            let rows = ctx.input().to_vec();
            for r in rows {
                ctx.sql("ins", &[r.get(0).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("win_in", "wproc")
        .build()
        .expect("window_native app is valid")
}

/// Manual windowing à la H-Store (Figure 7a right): a plain table with
/// explicit position/active columns plus a metadata table, maintained by
/// a multi-statement two-stage procedure — the paper's "fairest"
/// H-Store strategy.
///
/// Call the `seed` procedure once before ingesting.
pub fn window_manual(size: usize, slide: usize) -> App {
    let size = size as i64;
    let slide = slide as i64;
    App::builder()
        .stream("win_in", v_schema())
        .table(
            "wtab",
            Schema::of(&[("pos", DataType::Int), ("active", DataType::Int), ("v", DataType::Int)]),
        )
        .table("wmeta", Schema::of(&[("total", DataType::Int), ("staged", DataType::Int)]))
        .proc("seed", &[("init", "INSERT INTO wmeta (total, staged) VALUES (0, 0)")], &[], |ctx| {
            ctx.sql("init", &[])?;
            Ok(())
        })
        .proc(
            "wproc",
            &[
                ("meta", "SELECT total, staged FROM wmeta"),
                ("ins", "INSERT INTO wtab (pos, active, v) VALUES (?, 0, ?)"),
                ("activate", "UPDATE wtab SET active = 1 WHERE active = 0"),
                ("expire", "DELETE FROM wtab WHERE pos <= ?"),
                ("setmeta", "UPDATE wmeta SET total = ?, staged = ?"),
            ],
            &[],
            move |ctx| {
                let rows = ctx.input().to_vec();
                // Stage 1: read window metadata (one EE trip).
                let meta = ctx.sql("meta", &[])?;
                let mut total = meta.rows[0].get(0).as_int()?;
                let mut staged = meta.rows[0].get(1).as_int()?;
                // Stage 2: insert arrivals as staged, then slide if due.
                for r in &rows {
                    staged += 1;
                    ctx.sql("ins", &[Value::Int(total + staged), r.get(0).clone()])?;
                }
                // First window needs `size` tuples; later slides `slide`.
                let needed = if total == 0 { size } else { slide };
                if staged >= needed {
                    ctx.sql("activate", &[])?;
                    total += staged;
                    staged = 0;
                    ctx.sql("expire", &[Value::Int(total - size)])?;
                }
                ctx.sql("setmeta", &[Value::Int(total), Value::Int(staged)])?;
                Ok(())
            },
        )
        .pe_trigger("win_in", "wproc")
        .build()
        .expect("window_manual app is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use sstore_common::tuple;
    use sstore_engine::{BoundaryMode, Engine, EngineConfig};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn cfg(tag: &str) -> EngineConfig {
        EngineConfig::default().with_data_dir(std::env::temp_dir().join(format!(
            "sstore-micro-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }

    #[test]
    fn ee_chain_variants_produce_identical_sink() {
        for n in [0usize, 1, 3] {
            let runs = [
                Engine::start(cfg("ee-s"), ee_chain_sstore(n)).unwrap(),
                Engine::start(cfg("ee-h"), ee_chain_hstore(n)).unwrap(),
            ];
            let mut sink_values = Vec::new();
            for engine in runs {
                for v in 0..5i64 {
                    engine.ingest("chain_in", vec![tuple![v]]).unwrap();
                }
                engine.drain().unwrap();
                let vals = engine
                    .query(0, "SELECT v FROM sink ORDER BY v", vec![])
                    .unwrap()
                    .int_column(0)
                    .unwrap();
                // Each value passed through n +1 stages.
                assert_eq!(vals, (0..5i64).map(|v| v + n as i64).collect::<Vec<_>>());
                sink_values.push(vals);
            }
            assert_eq!(sink_values[0], sink_values[1], "variants must agree at n={n}");
        }
    }

    /// Fig. 5's crossing counts, pinned exactly under both boundary
    /// transports: a transaction of the S-Store chain crosses three
    /// times (begin, the one INSERT, commit) however long the EE-trigger
    /// cascade behind it is; the H-Store chain pays begin + commit plus
    /// one crossing per SQL statement (2n + 1 for n stages). Any change to
    /// what counts as a crossing shows up here.
    #[test]
    fn ee_chain_sstore_uses_fewer_round_trips() {
        let (n, txns) = (5u64, 10u64);
        for boundary in [BoundaryMode::Inline, BoundaryMode::Channel] {
            let s = Engine::start(cfg("rt-s").with_boundary(boundary), ee_chain_sstore(n as usize))
                .unwrap();
            let h = Engine::start(cfg("rt-h").with_boundary(boundary), ee_chain_hstore(n as usize))
                .unwrap();
            for engine in [&s, &h] {
                for v in 0..txns as i64 {
                    engine.ingest("chain_in", vec![tuple![v]]).unwrap();
                }
                engine.drain().unwrap();
            }
            let trips = |e: &Engine| e.metrics().ee_round_trips.load(Ordering::Relaxed);
            assert_eq!(trips(&s), txns * 3, "{boundary:?}"); // 30
            assert_eq!(trips(&h), txns * (2 + 2 * n + 1), "{boundary:?}"); // 130
            let fires = s.metrics().ee_trigger_fires.load(Ordering::Relaxed);
            assert_eq!(fires, n * txns);
            s.shutdown();
            h.shutdown();
        }
    }

    #[test]
    fn pe_chain_flows_end_to_end() {
        for n in [1usize, 2, 5] {
            let engine = Engine::start(cfg("pe"), pe_chain(n)).unwrap();
            for v in 0..4i64 {
                engine.ingest("wf_in", vec![tuple![v]]).unwrap();
            }
            engine.drain().unwrap();
            let done = engine.query(0, "SELECT COUNT(*) FROM done", vec![]).unwrap();
            assert_eq!(done.scalar().unwrap(), &Value::Int(4), "n={n}");
            assert_eq!(
                engine.metrics().txns_committed.load(Ordering::Relaxed),
                4 * n as u64
            );
            engine.shutdown();
        }
    }

    #[test]
    fn ee_chain_partitioned_matches_unpartitioned_output() {
        let n = 3;
        let single = Engine::start(cfg("chain1"), ee_chain_sstore(n)).unwrap();
        let multi =
            Engine::start(cfg("chain2").with_partitions(2), ee_chain_partitioned(n)).unwrap();
        let batch: Vec<_> = (0..10i64).map(|v| tuple![v]).collect();
        for engine in [&single, &multi] {
            engine.ingest("chain_in", batch.clone()).unwrap();
            engine.drain().unwrap();
        }
        let mut multi_vals = Vec::new();
        for p in 0..2 {
            multi_vals.extend(
                multi.query(p, "SELECT v FROM sink", vec![]).unwrap().int_column(0).unwrap(),
            );
        }
        multi_vals.sort();
        let single_vals =
            single.query(0, "SELECT v FROM sink ORDER BY v", vec![]).unwrap().int_column(0).unwrap();
        assert_eq!(multi_vals, single_vals, "partitioned chain must emit the same rows");
        single.shutdown();
        multi.shutdown();
    }

    #[test]
    fn exchange_pipeline_flows_end_to_end() {
        for partitions in [1usize, 2, 3] {
            let engine =
                Engine::start(cfg("xp").with_partitions(partitions), exchange_pipeline()).unwrap();
            for v in 0..12i64 {
                engine.ingest("xin", vec![tuple![v % 5, v]]).unwrap();
            }
            engine.drain().unwrap();
            let mut got = Vec::new();
            for p in 0..partitions {
                got.extend(
                    engine
                        .query(p, "SELECT k, v FROM xout", vec![])
                        .unwrap()
                        .rows
                        .iter()
                        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap())),
                );
            }
            got.sort();
            let mut want: Vec<(i64, i64)> = (0..12i64).map(exchange_rekey).collect();
            want.sort();
            assert_eq!(got, want, "partitions={partitions}");
            engine.shutdown();
        }
    }

    #[test]
    fn window_variants_agree_on_visible_contents() {
        let (size, slide) = (5usize, 2usize);
        let native = Engine::start(cfg("wn"), window_native(size, slide)).unwrap();
        let manual = Engine::start(cfg("wm"), window_manual(size, slide)).unwrap();
        manual.call("seed", vec![]).unwrap();
        for v in 0..13i64 {
            native.ingest("win_in", vec![tuple![v]]).unwrap();
            manual.ingest("win_in", vec![tuple![v]]).unwrap();
        }
        native.drain().unwrap();
        manual.drain().unwrap();
        let nat = native
            .query(0, "SELECT v FROM w ORDER BY v", vec![])
            .unwrap()
            .int_column(0)
            .unwrap();
        let man = manual
            .query(0, "SELECT v FROM wtab WHERE active = 1 ORDER BY v", vec![])
            .unwrap()
            .int_column(0)
            .unwrap();
        assert_eq!(nat, man, "native and manual windows must show the same active tuples");
        assert_eq!(nat.len(), size);
        native.shutdown();
        manual.shutdown();
    }
}
