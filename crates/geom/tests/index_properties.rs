//! Property tests for the grid index, pinning [`dfm_geom::Searcher`]'s
//! generation-stamp deduplication to the behaviour of the original
//! sort+dedup query (dfm-check harness; hermetic, seed-deterministic).

use dfm_check::{check, prop_assert_eq, Config, Gen};
use dfm_geom::{GridIndex, Rect};

fn cfg() -> Config {
    Config::with_cases(256)
}

fn arb_rect() -> impl Gen<Value = Rect> {
    (-300i64..300, -300i64..300, 1i64..150, 1i64..150)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// Oracle with the old query's observable contract (the bucket scan
/// followed by `sort_unstable` + `dedup` + touch filter): every
/// touching item exactly once, in insertion order. Implemented as a
/// brute-force scan so the oracle shares no code with the index.
fn reference_query(ix: &GridIndex<usize>, window: Rect) -> Vec<(Rect, usize)> {
    let mut ids: Vec<usize> = Vec::new();
    for (i, (r, _)) in ix.iter().enumerate() {
        if r.touches(&window) {
            ids.push(i);
        }
    }
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .map(|id| {
            let (r, v) = ix.iter().nth(id).unwrap();
            (*r, *v)
        })
        .collect()
}

#[test]
fn searcher_matches_reference_implementation() {
    let gen = (
        dfm_check::vec(arb_rect(), 0..40),
        dfm_check::vec(arb_rect(), 1..12),
        16i64..200,
    );
    check("searcher_matches_reference", &cfg(), &gen, |v| {
        let (items, windows, cell) = v;
        let mut ix = GridIndex::new(*cell);
        for (i, r) in items.iter().enumerate() {
            ix.insert(*r, i);
        }
        // One searcher reused across all windows: the generation stamp
        // must isolate queries from each other.
        let mut s = ix.searcher();
        for w in windows {
            let got: Vec<(Rect, usize)> = s
                .query_with_rects(*w)
                .into_iter()
                .map(|(r, v)| (r, *v))
                .collect();
            let want = reference_query(&ix, *w);
            prop_assert_eq!(&got, &want, "window {:?} cell {}", w, cell);
            // And the cold-path method on the index agrees too.
            let cold: Vec<(Rect, usize)> = ix
                .query_with_rects(*w)
                .into_iter()
                .map(|(r, v)| (r, *v))
                .collect();
            prop_assert_eq!(&cold, &want);
        }
        Ok(())
    });
}

#[test]
fn searcher_results_are_insertion_ordered_and_unique() {
    let gen = (dfm_check::vec(arb_rect(), 0..40), arb_rect(), 16i64..200);
    check("searcher_insertion_order", &cfg(), &gen, |v| {
        let (items, window, cell) = v;
        let mut ix = GridIndex::new(*cell);
        for (i, r) in items.iter().enumerate() {
            ix.insert(*r, i);
        }
        let ids: Vec<usize> = ix
            .searcher()
            .query_with_rects(*window)
            .iter()
            .map(|(_, v)| **v)
            .collect();
        for pair in ids.windows(2) {
            prop_assert_eq!(
                pair[0] < pair[1],
                true,
                "ids not strictly increasing: {:?}",
                ids
            );
        }
        Ok(())
    });
}

/// Generation wraparound keeps queries isolated: force the counter past
/// u32::MAX via many queries is impractical, so this just exercises a
/// long reuse run against the oracle.
#[test]
fn searcher_reuse_many_queries() {
    let mut ix = GridIndex::new(32);
    for i in 0..200i64 {
        ix.insert(
            Rect::new(
                i * 7 % 400,
                i * 13 % 400,
                i * 7 % 400 + 40,
                i * 13 % 400 + 40,
            ),
            i,
        );
    }
    let mut s = ix.searcher();
    for q in 0..500i64 {
        let w = Rect::new(q % 350, (q * 3) % 350, q % 350 + 60, (q * 3) % 350 + 60);
        let got: Vec<i64> = s.query_with_rects(w).iter().map(|(_, v)| **v).collect();
        let want: Vec<i64> = ix
            .iter()
            .filter(|(r, _)| r.touches(&w))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(got, want, "query {q}");
    }
}

/// One searcher reused across many random queries answers every one of
/// them exactly as the reference does, through `query` and `for_each`
/// alike: the candidate buffer it keeps between queries must never leak
/// one query's ids into the next.
#[test]
fn reused_searcher_query_and_for_each_match_reference() {
    let gen = (
        dfm_check::vec(arb_rect(), 0..40),
        dfm_check::vec(arb_rect(), 1..64),
        16i64..200,
    );
    check("reused_searcher_query_and_for_each", &cfg(), &gen, |v| {
        let (items, windows, cell) = v;
        let mut ix = GridIndex::new(*cell);
        for (i, r) in items.iter().enumerate() {
            ix.insert(*r, i);
        }
        let mut s = ix.searcher();
        for w in windows {
            let want = reference_query(&ix, *w);
            let mut seen: Vec<(Rect, usize)> = Vec::new();
            s.for_each(*w, |r, v| seen.push((r, *v)));
            prop_assert_eq!(&seen, &want, "for_each, window {:?} cell {}", w, cell);
            let ids: Vec<usize> = s.query(*w).into_iter().copied().collect();
            let want_ids: Vec<usize> = want.iter().map(|(_, v)| *v).collect();
            prop_assert_eq!(&ids, &want_ids, "query, window {:?} cell {}", w, cell);
        }
        Ok(())
    });
}
