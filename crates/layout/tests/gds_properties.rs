//! Property-based tests for the GDSII codec: arbitrary libraries must
//! round-trip exactly (dfm-check harness).

use dfm_check::{bools, check, lowercase_string, prop_assert_eq, Config, Gen};
use dfm_geom::{Rect, Rotation, Transform, Vector};
use dfm_layout::{gds, ArrayParams, Cell, CellRef, Label, Layer, Library};

fn cfg() -> Config {
    Config::with_cases(48)
}

fn arb_layer() -> impl Gen<Value = Layer> {
    (0u16..64, 0u16..4).prop_map(|(l, d)| Layer::new(l, d))
}

fn arb_rect() -> impl Gen<Value = Rect> {
    (
        -10_000i64..10_000,
        -10_000i64..10_000,
        1i64..2_000,
        1i64..2_000,
    )
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn arb_transform() -> impl Gen<Value = Transform> {
    (-5_000i64..5_000, -5_000i64..5_000, 0u8..4, bools()).prop_map(|(x, y, r, m)| {
        Transform::new(Vector::new(x, y), Rotation::from_quarter_turns(r), m)
    })
}

fn arb_leaf() -> impl Gen<Value = Cell> {
    (
        dfm_check::vec((arb_layer(), arb_rect()), 1..12),
        dfm_check::vec(
            (lowercase_string(1..9), -1000i64..1000, -1000i64..1000),
            0..3,
        ),
    )
        .prop_map(|(shapes, labels)| {
            let mut c = Cell::new("LEAF");
            for (layer, rect) in shapes {
                c.add_rect(layer, rect);
            }
            for (text, x, y) in labels {
                c.add_label(Label {
                    layer: Layer::new(63, 0),
                    position: dfm_geom::Point::new(x, y),
                    text,
                });
            }
            c
        })
}

fn arb_library() -> impl Gen<Value = Library> {
    (
        arb_leaf(),
        dfm_check::vec(arb_transform(), 1..5),
        (1u16..4, 1u16..4, 100i64..5_000, 100i64..5_000),
    )
        .prop_map(|(leaf, srefs, (cols, rows, cp, rp))| {
            let mut lib = Library::new("prop");
            lib.add_cell(leaf).expect("leaf");
            let mut top = Cell::new("TOP");
            for t in srefs {
                top.add_ref(CellRef::new("LEAF", t));
            }
            top.add_ref(CellRef::array(
                "LEAF",
                Transform::identity(),
                ArrayParams {
                    cols,
                    rows,
                    col_pitch: cp,
                    row_pitch: rp,
                },
            ));
            lib.add_cell(top).expect("top");
            lib
        })
}

/// Serialise → parse reproduces every flattened layer exactly.
#[test]
fn gds_roundtrip_exact() {
    check("gds_roundtrip_exact", &cfg(), &arb_library(), |lib| {
        let bytes = gds::to_bytes(lib).expect("serialise");
        let back = gds::from_bytes(&bytes).expect("parse");
        prop_assert_eq!(back.cell_count(), lib.cell_count());
        let top_a = lib.cell_id("TOP").expect("top");
        let top_b = back.cell_id("TOP").expect("top");
        let fa = lib.flatten(top_a).expect("flatten original");
        let fb = back.flatten(top_b).expect("flatten parsed");
        let layers_a: Vec<Layer> = fa.used_layers().collect();
        let layers_b: Vec<Layer> = fb.used_layers().collect();
        prop_assert_eq!(&layers_a, &layers_b);
        for layer in layers_a {
            prop_assert_eq!(fa.region(layer), fb.region(layer), "layer {}", layer);
        }
        // Labels survive.
        let leaf_a = lib.cell(lib.cell_id("LEAF").expect("leaf"));
        let leaf_b = back.cell(back.cell_id("LEAF").expect("leaf"));
        prop_assert_eq!(&leaf_a.labels, &leaf_b.labels);
        Ok(())
    });
}

/// Serialisation is deterministic.
#[test]
fn gds_bytes_deterministic() {
    check("gds_bytes_deterministic", &cfg(), &arb_library(), |lib| {
        prop_assert_eq!(
            gds::to_bytes(lib).expect("a"),
            gds::to_bytes(lib).expect("b")
        );
        Ok(())
    });
}

/// The flat write-back library reproduces the flat geometry.
#[test]
fn flat_writeback_roundtrip() {
    check("flat_writeback_roundtrip", &cfg(), &arb_library(), |lib| {
        let top = lib.cell_id("TOP").expect("top");
        let flat = lib.flatten(top).expect("flatten");
        let out = flat.to_library("o", "F");
        // Through GDS bytes as well.
        let back = gds::from_bytes(&gds::to_bytes(&out).expect("ser")).expect("parse");
        let reflat = back
            .flatten(back.top().expect("top"))
            .expect("flatten back");
        for layer in flat.used_layers() {
            prop_assert_eq!(flat.region(layer), reflat.region(layer), "layer {}", layer);
        }
        Ok(())
    });
}
