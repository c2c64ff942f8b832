//! Property test for the grid index: its one query against a brute-force
//! scan (dfm-check harness; hermetic, seed-deterministic).

use dfm_check::{check, prop_assert_eq, Config, Gen};
use dfm_geom::{GridIndex, Rect};

/// Rects of zero to 150 units a side, so edges and points are drawn as
/// often as boxes.
fn arb_rect(span: i64) -> impl Gen<Value = Rect> {
    (-span..span, -span..span, 0i64..150, 0i64..150)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// `for_each_touching` reports every item whose rect touches the window
/// exactly once, at any cell from 1 to 200, for boxes, edges and points,
/// and for windows partly or wholly outside the items' extent.
#[test]
fn for_each_touching_reports_each_touching_item_once() {
    let gen = (
        dfm_check::vec(arb_rect(300), 0..40),
        dfm_check::vec(arb_rect(700), 1..24),
        1i64..200,
    );
    check(
        "for_each_touching_matches_a_scan",
        &Config::with_cases(256),
        &gen,
        |v| {
            let (items, windows, cell) = v;
            let ix = GridIndex::new(*cell, items.iter().enumerate().map(|(i, r)| (*r, i)));
            for w in windows {
                let mut got: Vec<(Rect, usize)> = Vec::new();
                ix.for_each_touching(*w, |r, &i| got.push((r, i)));
                got.sort_unstable_by_key(|&(_, i)| i);
                let want: Vec<(Rect, usize)> = items
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.touches(w))
                    .map(|(i, r)| (*r, i))
                    .collect();
                prop_assert_eq!(&got, &want, "window {:?} cell {}", w, cell);
            }
            Ok(())
        },
    );
}
