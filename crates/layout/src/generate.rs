//! Deterministic synthetic layout generators.
//!
//! The paper's evaluation ran on production designs that cannot be
//! redistributed; these generators produce synthetic-but-realistic stand-ins
//! that exercise the same code paths (see the substitution table in
//! `DESIGN.md`). Every generator takes an explicit `seed`, so all
//! experiments are bit-reproducible.

use crate::{layers, ArrayParams, Cell, CellRef, Label, Library, Technology};
use dfm_geom::{Point, Rect, Transform, Vector};
use dfm_rand::Rng;

/// Parameters for [`routed_block`].
#[derive(Clone, Copy, Debug)]
pub struct RoutedBlockParams {
    /// Block width in dbu.
    pub width: i64,
    /// Block height in dbu.
    pub height: i64,
    /// Fraction of each metal-1 track occupied by wire (0–1).
    pub m1_fill: f64,
    /// Fraction of each metal-2 track occupied by wire (0–1).
    pub m2_fill: f64,
    /// Probability that an M1/M2 crossing receives a via.
    pub via_prob: f64,
    /// Probability that a wire segment takes a one-track jog mid-span.
    pub jog_prob: f64,
    /// Probability that a wire is drawn at double width.
    pub wide_prob: f64,
}

impl Default for RoutedBlockParams {
    fn default() -> Self {
        RoutedBlockParams {
            width: 40_000,
            height: 40_000,
            m1_fill: 0.45,
            m2_fill: 0.40,
            via_prob: 0.25,
            jog_prob: 0.15,
            wide_prob: 0.10,
        }
    }
}

impl RoutedBlockParams {
    /// A denser variant (stress case for spacing-driven yield loss).
    pub fn dense() -> Self {
        RoutedBlockParams {
            m1_fill: 0.70,
            m2_fill: 0.65,
            via_prob: 0.35,
            jog_prob: 0.25,
            ..Default::default()
        }
    }

    /// A sparse variant (fill-insertion stress case).
    pub fn sparse() -> Self {
        RoutedBlockParams {
            m1_fill: 0.15,
            m2_fill: 0.12,
            via_prob: 0.10,
            jog_prob: 0.05,
            ..Default::default()
        }
    }
}

/// One drawn straight wire piece, axis-aligned along its track.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// Centreline position on the cross axis.
    center: i64,
    /// Along-axis start (snapped to the routing grid).
    lo: i64,
    /// Along-axis end (snapped to the routing grid).
    hi: i64,
    /// Half-width of the wire.
    half: i64,
}

/// Fills one track with wire runs on an integer slot grid. Runs are
/// `[lo, hi)` in dbu; at least one empty slot separates consecutive runs,
/// which guarantees along-track spacing ≥ `grid`.
fn fill_track(rng: &mut Rng, slots: i64, fill: f64, grid: i64) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    let mut pos = 0i64;
    while pos + 2 <= slots {
        if rng.f64() < fill {
            let len = 2 + rng.range(0..10i64).min(slots - pos - 2);
            out.push((pos * grid, (pos + len) * grid));
            pos += len + 1;
        } else {
            pos += 1 + rng.range(0..4i64);
        }
    }
    out
}

/// Generates a routed two-metal block: horizontal metal-1 wires, vertical
/// metal-2 wires, and vias (with landing pads) at a random subset of
/// crossings. Wires occasionally jog to the adjacent track, producing the
/// 2-D configurations that pattern-based DFM targets.
///
/// The block is **clean by construction** for width, spacing, enclosure
/// and area rules: every endpoint, jog and via centre sits on a routing
/// grid equal to the metal pitch (3× the minimum width), which leaves
/// spacing margin for double-width wires and via landing pads.
///
/// The output is a flat single-cell library named `ROUTED`.
pub fn routed_block(tech: &Technology, params: RoutedBlockParams, seed: u64) -> Library {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cell = Cell::new("ROUTED");
    let w1 = tech.rules(layers::METAL1).min_width;
    let w2 = tech.rules(layers::METAL2).min_width;
    let p1 = tech.m1_pitch;
    let p2 = tech.m2_pitch;

    let mut m1_spans: Vec<Span> = Vec::new();
    let mut m2_spans: Vec<Span> = Vec::new();

    // Metal-1: horizontal tracks at y = t*p1 + p1/2; endpoints on the
    // x-grid of pitch p2 (shared with M2 track centres and via centres).
    let n1 = (params.height / p1 - 1).max(0);
    let x_slots = params.width / p2;
    for t in 0..n1 {
        let y = t * p1 + p1 / 2;
        for (lo, hi) in fill_track(&mut rng, x_slots, params.m1_fill, p2) {
            let half = if rng.f64() < params.wide_prob {
                w1
            } else {
                w1 / 2
            };
            let jog = rng.f64() < params.jog_prob && hi - lo >= 4 * p2 && t + 1 < n1;
            if jog {
                let mid = lo + ((hi - lo) / (2 * p2)) * p2;
                let y2 = (t + 1) * p1 + p1 / 2;
                m1_spans.push(Span {
                    center: y,
                    lo,
                    hi: mid,
                    half,
                });
                m1_spans.push(Span {
                    center: y2,
                    lo: mid,
                    hi,
                    half,
                });
                // Vertical jog connector (drawn directly, not a via site).
                cell.add_rect(
                    layers::METAL1,
                    Rect::new(mid - half, y - half, mid + half, y2 + half),
                );
            } else {
                m1_spans.push(Span {
                    center: y,
                    lo,
                    hi,
                    half,
                });
            }
        }
    }
    // Metal-2: vertical tracks at x = t*p2 (on the shared x-grid);
    // endpoints on the y-grid of pitch p1.
    let n2 = (params.width / p2 - 1).max(1);
    let y_slots = params.height / p1;
    for t in 1..n2 {
        let x = t * p2;
        for (lo, hi) in fill_track(&mut rng, y_slots, params.m2_fill, p1) {
            let half = if rng.f64() < params.wide_prob {
                w2
            } else {
                w2 / 2
            };
            m2_spans.push(Span {
                center: x,
                lo,
                hi,
                half,
            });
        }
    }

    for s in &m1_spans {
        cell.add_rect(
            layers::METAL1,
            Rect::new(s.lo, s.center - s.half, s.hi, s.center + s.half),
        );
    }
    for s in &m2_spans {
        cell.add_rect(
            layers::METAL2,
            Rect::new(s.center - s.half, s.lo, s.center + s.half, s.lo.max(s.hi)),
        );
    }

    // Vias at drawn-span crossings where the landing pad fits entirely
    // within both wires' along-axis extent.
    let pad_half = tech.via_size / 2 + tech.via_enclosure;
    for m1 in &m1_spans {
        for m2 in &m2_spans {
            let x = m2.center;
            let y = m1.center;
            if x - pad_half >= m1.lo
                && x + pad_half <= m1.hi
                && y - pad_half >= m2.lo
                && y + pad_half <= m2.hi
                && rng.f64() < params.via_prob
            {
                let c = Point::new(x, y);
                cell.add_rect(layers::VIA1, tech.via_rect_at(c));
                cell.add_rect(layers::METAL1, tech.via_pad_at(c));
                cell.add_rect(layers::METAL2, tech.via_pad_at(c));
            }
        }
    }

    let mut lib = Library::new(format!("routed_{}", tech.node_nm));
    let id = lib.add_cell(cell).expect("fresh library has no name clash");
    lib.set_top(id).expect("id is valid");
    lib
}

/// Builds a small standard-cell family (INV, NAND2, FILL) for `tech`.
fn build_std_cells(tech: &Technology, lib: &mut Library) {
    let gp = tech.gate_pitch;
    let h = tech.cell_height;
    let pw = tech.rules(layers::POLY).min_width;
    let m1w = tech.rules(layers::METAL1).min_width;
    let cs = tech.via_size;

    let make = |name: &str, gates: i64| -> Cell {
        let mut c = Cell::new(name);
        let w = gp * (gates + 1);
        // Power rails.
        c.add_rect(layers::METAL1, Rect::new(0, 0, w, m1w * 2));
        c.add_rect(layers::METAL1, Rect::new(0, h - m1w * 2, w, h));
        // Active regions (p over n).
        c.add_rect(
            layers::ACTIVE,
            Rect::new(gp / 2, h / 8, w - gp / 2, h * 3 / 8),
        );
        c.add_rect(
            layers::ACTIVE,
            Rect::new(gp / 2, h * 5 / 8, w - gp / 2, h * 7 / 8),
        );
        for g in 0..gates {
            let x = gp + g * gp;
            // Poly gate crossing both actives.
            c.add_rect(
                layers::POLY,
                Rect::new(x - pw / 2, h / 16, x + pw / 2, h * 15 / 16),
            );
            // Gate contact landing.
            c.add_rect(
                layers::POLY,
                Rect::new(x - pw, h * 7 / 16, x + pw, h * 9 / 16),
            );
            c.add_rect(
                layers::CONTACT,
                Rect::centered_at(Point::new(x, h / 2), cs, cs),
            );
            c.add_rect(
                layers::METAL1,
                Rect::centered_at(
                    Point::new(x, h / 2),
                    cs + 2 * tech.via_enclosure,
                    cs + 2 * tech.via_enclosure,
                ),
            );
        }
        // Source/drain contacts between gates.
        for g in 0..=gates {
            let x = gp / 2 + g * gp;
            for yc in [h / 4, h * 3 / 4] {
                c.add_rect(
                    layers::CONTACT,
                    Rect::centered_at(Point::new(x, yc), cs, cs),
                );
                c.add_rect(
                    layers::METAL1,
                    Rect::centered_at(
                        Point::new(x, yc),
                        cs + 2 * tech.via_enclosure,
                        cs + 2 * tech.via_enclosure,
                    ),
                );
            }
        }
        c
    };

    lib.add_cell(make("INV", 1)).expect("INV unique");
    lib.add_cell(make("NAND2", 2)).expect("NAND2 unique");
    let mut fill = Cell::new("FILL");
    fill.add_rect(layers::METAL1, Rect::new(0, 0, tech.gate_pitch, 2 * m1w));
    fill.add_rect(
        layers::METAL1,
        Rect::new(0, h - 2 * m1w, tech.gate_pitch, h),
    );
    lib.add_cell(fill).expect("FILL unique");
}

/// Generates a standard-cell block: `rows` rows of randomly chosen cells
/// (INV/NAND2/FILL), placed edge-to-edge, with alternate rows flipped as
/// in real row-based placement.
///
/// Returns a hierarchical library with top cell `BLOCK`.
pub fn standard_cell_block(tech: &Technology, rows: usize, row_width: i64, seed: u64) -> Library {
    let mut rng = Rng::seed_from_u64(seed);
    let mut lib = Library::new(format!("stdcells_{}", tech.node_nm));
    build_std_cells(tech, &mut lib);
    let widths = [
        ("INV", tech.gate_pitch * 2),
        ("NAND2", tech.gate_pitch * 3),
        ("FILL", tech.gate_pitch),
    ];
    let mut top = Cell::new("BLOCK");
    for row in 0..rows as i64 {
        let y = row * tech.cell_height;
        let flipped = row % 2 == 1;
        let mut x = 0i64;
        while x < row_width {
            let (name, w) = widths[rng.range(0..widths.len())];
            let t = if flipped {
                // Flip about x then shift so the cell occupies [y, y+h).
                Transform::new(
                    Vector::new(x, y + tech.cell_height),
                    dfm_geom::Rotation::R0,
                    true,
                )
            } else {
                Transform::translate(Vector::new(x, y))
            };
            top.add_ref(CellRef::new(name, t));
            x += w;
        }
    }
    let id = lib.add_cell(top).expect("BLOCK unique");
    lib.set_top(id).expect("valid id");
    lib
}

/// Generates a via chain: `n` alternating metal-1/metal-2 straps connected
/// by single vias — the canonical via-yield test structure.
///
/// Returns a flat library with top cell `VIACHAIN`.
pub fn via_chain(tech: &Technology, n: usize) -> Library {
    let mut cell = Cell::new("VIACHAIN");
    let step = tech.via_size + tech.via_space + 2 * tech.via_enclosure;
    let m1w = tech
        .rules(layers::METAL1)
        .min_width
        .max(tech.via_size + 2 * tech.via_enclosure);
    for i in 0..n as i64 {
        let x = i * step * 2;
        let c1 = Point::new(x, 0);
        let c2 = Point::new(x + step, 0);
        cell.add_rect(layers::VIA1, tech.via_rect_at(c1));
        cell.add_rect(layers::VIA1, tech.via_rect_at(c2));
        // M1 strap joining the two vias of this link.
        let pad1 = tech.via_pad_at(c1);
        let pad2 = tech.via_pad_at(c2);
        cell.add_rect(
            layers::METAL1,
            Rect::new(pad1.x0, -m1w / 2, pad2.x1, m1w / 2),
        );
        // M2 strap joining to the next link.
        let c3 = Point::new(x + 2 * step, 0);
        let pad3 = tech.via_pad_at(c3);
        cell.add_rect(
            layers::METAL2,
            Rect::new(pad2.x0, -m1w / 2, pad3.x1.min(pad2.x1 + step * 2), m1w / 2),
        );
    }
    let mut lib = Library::new(format!("viachain_{}", tech.node_nm));
    let id = lib.add_cell(cell).expect("fresh library");
    lib.set_top(id).expect("valid id");
    lib
}

/// Generates an SRAM-like array: a dense bitcell arrayed `rows × cols`
/// with GDSII `AREF` replication. Exercises hierarchy expansion and the
/// dense, highly-regular patterns where pattern catalogs shine.
pub fn sram_array(tech: &Technology, rows: u16, cols: u16) -> Library {
    let mut lib = Library::new(format!("sram_{}", tech.node_nm));
    let pw = tech.rules(layers::POLY).min_width;
    let m1w = tech.rules(layers::METAL1).min_width;
    let cs = tech.via_size;
    let cw = tech.gate_pitch * 2; // bitcell width
    let ch = tech.cell_height / 2; // bitcell height

    let mut bit = Cell::new("BITCELL");
    bit.add_rect(
        layers::ACTIVE,
        Rect::new(cw / 8, ch / 8, cw * 3 / 8, ch * 7 / 8),
    );
    bit.add_rect(
        layers::ACTIVE,
        Rect::new(cw * 5 / 8, ch / 8, cw * 7 / 8, ch * 7 / 8),
    );
    // Two horizontal poly wordline fingers.
    bit.add_rect(
        layers::POLY,
        Rect::new(0, ch / 4 - pw / 2, cw, ch / 4 + pw / 2),
    );
    bit.add_rect(
        layers::POLY,
        Rect::new(0, ch * 3 / 4 - pw / 2, cw, ch * 3 / 4 + pw / 2),
    );
    // Bitline metal.
    bit.add_rect(
        layers::METAL1,
        Rect::new(cw / 4 - m1w / 2, 0, cw / 4 + m1w / 2, ch),
    );
    bit.add_rect(
        layers::METAL1,
        Rect::new(cw * 3 / 4 - m1w / 2, 0, cw * 3 / 4 + m1w / 2, ch),
    );
    // Cell contact.
    bit.add_rect(
        layers::CONTACT,
        Rect::centered_at(Point::new(cw / 4, ch / 2), cs, cs),
    );
    bit.add_label(Label {
        layer: layers::MARKER,
        position: Point::new(cw / 2, ch / 2),
        text: "bit".into(),
    });
    lib.add_cell(bit).expect("BITCELL unique");

    let mut top = Cell::new("ARRAY");
    top.add_ref(CellRef::array(
        "BITCELL",
        Transform::identity(),
        ArrayParams {
            cols,
            rows,
            col_pitch: cw,
            row_pitch: ch,
        },
    ));
    let id = lib.add_cell(top).expect("ARRAY unique");
    lib.set_top(id).expect("valid id");
    lib
}

/// Generates classic lithography test structures on metal-1: line/space
/// gratings at several pitches, an isolated line, a line-end gap pair, and
/// a T-junction. Used by the OPC and process-window experiments (E3).
///
/// Returns a flat library with top cell `LITHOTEST`; each structure group
/// is annotated with a MARKER label at its anchor.
pub fn litho_test_patterns(tech: &Technology) -> Library {
    let w = tech.rules(layers::METAL1).min_width;
    let mut cell = Cell::new("LITHOTEST");
    let mut y = 0i64;
    let len = w * 40;

    // Gratings at pitch multipliers 2..5 (dense .. semi-isolated).
    for mult in 2..=5i64 {
        let pitch = w * mult;
        for i in 0..7i64 {
            cell.add_rect(
                layers::METAL1,
                Rect::new(0, y + i * pitch, len, y + i * pitch + w),
            );
        }
        cell.add_label(Label {
            layer: layers::MARKER,
            position: Point::new(0, y),
            text: format!("grating_p{mult}"),
        });
        y += 8 * pitch + w * 10;
    }

    // Isolated line.
    cell.add_rect(layers::METAL1, Rect::new(0, y, len, y + w));
    cell.add_label(Label {
        layer: layers::MARKER,
        position: Point::new(0, y),
        text: "iso_line".into(),
    });
    y += w * 12;

    // Line-end gap pair (tip-to-tip): classic pinch/bridge site.
    let gap = w * 2;
    cell.add_rect(layers::METAL1, Rect::new(0, y, len / 2 - gap / 2, y + w));
    cell.add_rect(layers::METAL1, Rect::new(len / 2 + gap / 2, y, len, y + w));
    cell.add_label(Label {
        layer: layers::MARKER,
        position: Point::new(len / 2, y),
        text: "line_end_gap".into(),
    });
    y += w * 12;

    // T-junction.
    cell.add_rect(layers::METAL1, Rect::new(0, y, len, y + w));
    cell.add_rect(
        layers::METAL1,
        Rect::new(len / 2 - w / 2, y, len / 2 + w / 2, y + w * 10),
    );
    cell.add_label(Label {
        layer: layers::MARKER,
        position: Point::new(len / 2, y),
        text: "t_junction".into(),
    });

    let mut lib = Library::new(format!("lithotest_{}", tech.node_nm));
    let id = lib.add_cell(cell).expect("fresh library");
    lib.set_top(id).expect("valid id");
    lib
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    #[test]
    fn routed_block_is_deterministic() {
        let tech = Technology::n65();
        let a = routed_block(&tech, RoutedBlockParams::default(), 7);
        let b = routed_block(&tech, RoutedBlockParams::default(), 7);
        let fa = a.flatten(a.top().expect("top")).expect("flatten");
        let fb = b.flatten(b.top().expect("top")).expect("flatten");
        assert_eq!(
            fa.region(layers::METAL1).area(),
            fb.region(layers::METAL1).area()
        );
        assert_eq!(
            fa.region(layers::VIA1).rect_count(),
            fb.region(layers::VIA1).rect_count()
        );
    }

    #[test]
    fn routed_block_seeds_differ() {
        let tech = Technology::n65();
        let a = routed_block(&tech, RoutedBlockParams::default(), 1);
        let b = routed_block(&tech, RoutedBlockParams::default(), 2);
        let fa = a.flatten(a.top().expect("top")).expect("flatten");
        let fb = b.flatten(b.top().expect("top")).expect("flatten");
        assert_ne!(
            fa.region(layers::METAL1).area(),
            fb.region(layers::METAL1).area()
        );
    }

    #[test]
    fn routed_block_has_all_route_layers() {
        let tech = Technology::n45();
        let lib = routed_block(&tech, RoutedBlockParams::default(), 3);
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        assert!(flat.region(layers::METAL1).area() > 0);
        assert!(flat.region(layers::METAL2).area() > 0);
        assert!(flat.region(layers::VIA1).rect_count() > 0);
    }

    #[test]
    fn vias_are_enclosed_by_both_metals() {
        let tech = Technology::n65();
        let lib = routed_block(&tech, RoutedBlockParams::default(), 11);
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let m1 = flat.region(layers::METAL1);
        let m2 = flat.region(layers::METAL2);
        for via in flat.region(layers::VIA1).rects() {
            let pad = via.expanded(tech.via_enclosure);
            let pad_region = dfm_geom::Region::from_rect(pad);
            assert!(
                pad_region.difference(&m1).is_empty(),
                "via {via:?} not enclosed by M1"
            );
            assert!(
                pad_region.difference(&m2).is_empty(),
                "via {via:?} not enclosed by M2"
            );
        }
    }

    #[test]
    fn denser_params_give_more_metal() {
        let tech = Technology::n65();
        let dense = routed_block(&tech, RoutedBlockParams::dense(), 5);
        let sparse = routed_block(&tech, RoutedBlockParams::sparse(), 5);
        let fd = dense.flatten(dense.top().expect("t")).expect("f");
        let fs = sparse.flatten(sparse.top().expect("t")).expect("f");
        assert!(fd.region(layers::METAL1).area() > 2 * fs.region(layers::METAL1).area());
    }

    #[test]
    fn std_cell_block_flattens() {
        let tech = Technology::n65();
        let lib = standard_cell_block(&tech, 4, 20_000, 9);
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        assert!(flat.region(layers::POLY).area() > 0);
        assert!(flat.region(layers::CONTACT).rect_count() > 10);
        // Rows stack to rows*cell_height.
        assert!(flat.bbox().height() <= 4 * tech.cell_height);
    }

    #[test]
    fn via_chain_counts() {
        let tech = Technology::n65();
        let lib = via_chain(&tech, 25);
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        assert_eq!(flat.region(layers::VIA1).rect_count(), 50);
    }

    #[test]
    fn sram_array_replicates() {
        let tech = Technology::n45();
        let lib = sram_array(&tech, 8, 16);
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        // 128 bitcells, one contact each.
        assert_eq!(flat.region(layers::CONTACT).rect_count(), 128);
    }

    #[test]
    fn litho_patterns_have_markers() {
        let tech = Technology::n65();
        let lib = litho_test_patterns(&tech);
        let cell = lib.cell(lib.top().expect("top"));
        assert!(cell.labels.iter().any(|l| l.text == "iso_line"));
        assert!(cell.labels.iter().any(|l| l.text.starts_with("grating_")));
    }
}
