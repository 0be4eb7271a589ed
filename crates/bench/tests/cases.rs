//! Every case runs, at its smallest size, returns the figures and rows
//! EXPERIMENTS.md lists for it, and its report survives the JSON writer:
//! parsed back and written again it is the same text. (Whether the
//! gates *pass* is `sstore-bench smoke`'s business, at a length where
//! the measurements mean something.)

use sstore_bench::cases::{self, CASES};
use sstore_bench::{Check, DataDir, Figure, Params, Report, Row, Series};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A recursive-descent parser for what `Report::to_json` can emit.
struct Parser<'a> {
    rest: &'a str,
}

impl Parser<'_> {
    fn eat(&mut self, token: &str) -> bool {
        self.rest = self.rest.trim_start();
        let found = self.rest.starts_with(token);
        if found {
            self.rest = &self.rest[token.len()..];
        }
        found
    }

    fn expect(&mut self, token: &str) {
        assert!(self.eat(token), "expected `{token}` at `{:.30}`", self.rest);
    }

    fn string(&mut self) -> String {
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            match chars.next().expect("unterminated string") {
                (i, '"') => {
                    self.rest = &self.rest[i + 1..];
                    return out;
                }
                (_, '\\') => match chars.next().expect("escape").1 {
                    'u' => {
                        let hex: String = (0..4).map(|_| chars.next().expect("hex").1).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
                    }
                    c => out.push(c),
                },
                (_, c) => out.push(c),
            }
        }
    }

    /// Comma-separated items up to `close`.
    fn items<T>(&mut self, close: &str, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let mut out = Vec::new();
        while !self.eat(close) {
            if !out.is_empty() {
                self.expect(",");
            }
            out.push(item(self));
        }
        out
    }

    fn value(&mut self) -> Json {
        if self.eat("{") {
            Json::Obj(self.items("}", |p| {
                p.expect("\"");
                let key = p.string();
                p.expect(":");
                (key, p.value())
            }))
        } else if self.eat("[") {
            Json::Arr(self.items("]", Self::value))
        } else if self.eat("\"") {
            Json::Str(self.string())
        } else if self.eat("true") {
            Json::Bool(true)
        } else if self.eat("false") {
            Json::Bool(false)
        } else if self.eat("null") {
            Json::Null
        } else {
            let end =
                self.rest.find(|c: char| !"+-.eE0123456789".contains(c)).unwrap_or(self.rest.len());
            let (number, rest) = self.rest.split_at(end);
            self.rest = rest;
            Json::Num(number.parse().unwrap_or_else(|_| panic!("not a number: `{number}`")))
        }
    }
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser { rest: text };
        let v = p.value();
        assert_eq!(p.rest.trim(), "", "trailing text");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no `{key}`")).1
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> String {
        match self {
            Json::Str(s) => s.clone(),
            other => panic!("not a string: {other:?}"),
        }
    }

    /// `null` is how the writer spells a value that is not a number.
    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            Json::Null => f64::NAN,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    /// The report this value was written from.
    fn report(&self) -> Report {
        let Json::Obj(params) = self.get("params") else { panic!("params is an object") };
        let figure = |f: &Json| Figure {
            title: f.get("title").str(),
            x_label: f.get("x_label").str(),
            y_label: f.get("y_label").str(),
            series: (f.get("series").arr().iter())
                .map(|s| Series {
                    label: s.get("label").str(),
                    points: s
                        .get("points")
                        .arr()
                        .iter()
                        .map(|p| (p.arr()[0].num(), p.arr()[1].num()))
                        .collect(),
                })
                .collect(),
        };
        Report {
            case: self.get("case").str(),
            params: params.iter().map(|(k, v)| (k.clone(), v.num())).collect(),
            figures: self.get("figures").arr().iter().map(figure).collect(),
            rows: (self.get("rows").arr().iter())
                .map(|r| Row {
                    name: r.get("name").str(),
                    value: r.get("value").num(),
                    unit: r.get("unit").str(),
                })
                .collect(),
            checks: (self.get("checks").arr().iter())
                .map(|c| Check {
                    name: c.get("name").str(),
                    pass: *c.get("pass") == Json::Bool(true),
                    detail: c.get("detail").str(),
                })
                .collect(),
        }
    }
}

/// Per case: the sizes the test runs it at, its figures as (title,
/// series labels), and the rows it must report.
struct Expect {
    case: &'static str,
    params: Params,
    figures: &'static [(&'static str, &'static [&'static str])],
    rows: &'static [&'static str],
}

const fn at(secs: Option<f64>, scale: f64) -> Params {
    Params { secs, scale }
}

const PHASE: [&str; 9] = [
    "offered_bps",
    "shed",
    "goodput_bps",
    "max_in_flight",
    "rtt_p50_us",
    "rtt_p99_us",
    "e2e_p50_us",
    "e2e_p95_us",
    "e2e_p99_us",
];

const EXPECT: &[Expect] = &[
    Expect {
        case: "fig5",
        params: at(None, 0.01),
        figures: &[("Figure 5: EE trigger micro-benchmark", &["S-Store", "H-Store"])],
        rows: &[],
    },
    Expect {
        case: "fig6",
        params: at(None, 0.01),
        figures: &[("Figure 6: PE trigger micro-benchmark", &["S-Store", "H-Store"])],
        rows: &[],
    },
    Expect {
        case: "fig7",
        params: at(None, 0.01),
        figures: &[(
            "Figure 7: window micro-benchmark (slide = size/5)",
            &["S-Store native", "H-Store manual"],
        )],
        rows: &[],
    },
    Expect {
        case: "fig8",
        params: at(Some(0.005), 1.0),
        figures: &[(
            "Figure 8: leaderboard maintenance (input rate sweep)",
            &["S-Store", "H-Store"],
        )],
        rows: &["accepted_frac"],
    },
    Expect {
        case: "fig9a",
        params: at(None, 0.005),
        figures: &[
            (
                "Figure 9a: logging overhead, no group commit",
                &["weak (border only)", "strong (all TEs)"],
            ),
            ("Figure 9a ablation: with group commit (64)", &["weak, group=64", "strong, group=64"]),
        ],
        rows: &[],
    },
    Expect {
        case: "fig9b",
        params: at(None, 0.02),
        figures: &[(
            "Figure 9b: recovery time for 10 workflows",
            &["weak recovery", "strong recovery"],
        )],
        rows: &[],
    },
    Expect {
        case: "fig10",
        params: at(None, 0.002),
        figures: &[("Figure 10: voter w/ leaderboard on modern SDMSs", &[])],
        rows: &[
            "S-Store (with validation)",
            "Trident-like (with validation)",
            "Spark-like (with validation)",
            "S-Store (no validation)",
            "Trident-like (no validation)",
            "Spark-like (no validation)",
            "accepted_frac",
        ],
    },
    Expect {
        case: "fig11",
        params: at(None, 0.05),
        figures: &[(
            "Figure 11: Linear Road scalability (CAVEAT: single-core host)",
            &["reports/sec", "x-ways supported"],
        )],
        rows: &[],
    },
    Expect {
        case: "ablation-scheduler",
        params: at(None, 0.01),
        figures: &[(
            "Ablation: scheduler discipline (PE-trigger chain)",
            &["streaming sched", "plain FIFO"],
        )],
        rows: &[],
    },
    Expect {
        case: "hotpath",
        params: at(Some(0.06), 1.0),
        figures: &[],
        rows: &[
            "ee_chain10_inline",
            "ee_chain10_channel",
            "ee_chain10_hstore",
            "voter_inline",
            "voter_batch100_inline",
            "accepted_frac",
        ],
    },
    Expect {
        case: "scaling",
        params: at(Some(0.06), 0.5),
        figures: &[],
        rows: &["ee_chain10_p1", "ee_chain10_p2", "exchange_p1", "exchange_p2"],
    },
    Expect {
        case: "colscan",
        params: at(None, 0.01),
        figures: &[],
        rows: &[
            "filter_count_rowwise_us",
            "filter_count_columnar_us",
            "filter_count_speedup",
            "topk_speedup",
            "group_min_speedup",
            "count_window_us",
            "trend_us",
            "count_filtered_us",
            "top_us",
            "engine_adhoc_selects",
            "engine_columnar_batches",
        ],
    },
    Expect {
        case: "timewindow",
        params: at(Some(0.06), 1.0),
        figures: &[],
        rows: &[
            "tuples_per_sec",
            "plain_tuples_per_sec",
            "window_slides",
            "late_dropped",
            "grouped_columnar_tuples_per_sec",
            "windowed_columnar_batches",
        ],
    },
    Expect {
        case: "overload",
        params: at(Some(0.05), 1.0),
        figures: &[],
        rows: &[
            "capacity_bps",
            "credits",
            "credit_window_us",
            "max_in_flight",
            "peak_goodput_bps",
            "shed_total",
            "mixed_border_count",
            "mixed_oltp_e2e_p99_us",
            "mixed_border_queue_wait_p50_us",
            "mixed_oltp_execution_p95_us",
        ],
    },
    Expect {
        case: "server",
        params: at(Some(0.05), 1.0),
        figures: &[],
        rows: &["capacity_bps", "credits", "credit_window_us", "max_in_flight", "sessions_served"],
    },
    Expect {
        case: "recovery",
        params: at(None, 0.05),
        figures: &[
            ("Recovery time vs log length", &["full replay", "segmented+incr"]),
            ("Command log on disk at the crash", &["full replay", "segmented+incr"]),
        ],
        rows: &[
            "full_recover_ms",
            "full_records_replayed",
            "full_segments_gced",
            "seg_recover_ms",
            "seg_records_replayed",
            "seg_segments_gced",
            "chained_ms",
            "base_only_ms",
        ],
    },
];

/// One test, cases in turn: `timewindow` flips the process-wide
/// row-wise switch that `colscan`'s engine stage reads, and timings
/// taken side by side would mean even less than they do at this size.
#[test]
fn every_case_reports_what_the_docs_list_and_round_trips_through_json() {
    assert_eq!(
        EXPECT.iter().map(|e| e.case).collect::<Vec<_>>(),
        CASES.iter().map(|c| c.name).collect::<Vec<_>>(),
        "one expectation per case, in order"
    );
    for e in EXPECT {
        // Not `cases::run`: at this size a ratio gate may well fail, and
        // that would keep the case's data directory.
        let case = cases::find(e.case).unwrap();
        let mut report = (case.run)(&e.params, &DataDir::new(e.case));
        report.apply(case.gates);
        assert_eq!(report.case, e.case);
        let figures: Vec<(&str, Vec<&str>)> = (report.figures.iter())
            .map(|f| (f.title.as_str(), f.series.iter().map(|s| s.label.as_str()).collect()))
            .collect();
        let expected: Vec<(&str, Vec<&str>)> =
            e.figures.iter().map(|(t, s)| (*t, s.to_vec())).collect();
        assert_eq!(figures, expected, "{}", e.case);
        for f in &report.figures {
            for s in &f.series {
                assert!(
                    !s.points.is_empty() && s.points.len() == f.series[0].points.len(),
                    "{}: {s:?}",
                    e.case
                );
            }
        }
        let mut rows: Vec<String> = e.rows.iter().map(|r| (*r).to_owned()).collect();
        if matches!(e.case, "overload" | "server") {
            let sweep = ["x0.5", "x1", "x2", "x5", "x10"].into_iter();
            let phases = sweep.chain((e.case == "overload").then_some("block_x10"));
            rows.extend(phases.flat_map(|p| PHASE.iter().map(move |r| format!("{p}_{r}"))));
        }
        for row in &rows {
            assert!(report.value(row).is_some(), "{}: no row `{row}` in {:?}", e.case, report.rows);
        }
        // A gate that cannot find its rows says so; none may.
        assert!(report.checks.len() >= case.gates.len());
        for c in &report.checks {
            assert!(!c.detail.contains("missing row"), "{}: {c:?}", e.case);
        }

        let json = report.to_json();
        let back = Json::parse(&json).report();
        assert_eq!(back.to_json(), json, "{}: JSON round trip", e.case);
        assert_eq!(back.figures, report.figures, "{}: the series come back exactly", e.case);
        assert_eq!(
            (&back.case, &back.params, &back.checks),
            (&report.case, &report.params, &report.checks)
        );
        assert!(!report.to_text().is_empty());
    }
}
