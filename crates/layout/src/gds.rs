//! Binary GDSII stream-format reader and writer.
//!
//! Implemented from scratch against the classic Calma GDSII stream
//! specification: a sequence of records, each `[u16 length][u8 record
//! type][u8 data type]` followed by big-endian payload. Floating-point
//! values (the `UNITS` record, magnification, angles) use the excess-64
//! base-16 "real8" format, encoded and decoded exactly here.
//!
//! Supported constructs: `BOUNDARY`, `PATH` (Manhattan, path types 0/2),
//! `SREF`, `AREF`, `TEXT`, `STRANS`/`ANGLE` restricted to the Manhattan
//! subgroup (multiples of 90°, mirror about x). Magnification other than
//! 1 and non-Manhattan angles are rejected with
//! [`LayoutError::GdsUnsupported`].
//!
//! ```
//! use dfm_layout::{gds, layers, Cell, Library};
//! use dfm_geom::Rect;
//!
//! let mut lib = Library::new("demo");
//! let mut top = Cell::new("TOP");
//! top.add_rect(layers::METAL1, Rect::new(0, 0, 100, 50));
//! lib.add_cell(top)?;
//! let bytes = gds::to_bytes(&lib)?;
//! let back = gds::from_bytes(&bytes)?;
//! assert_eq!(back.cell_count(), 1);
//! # Ok::<(), dfm_layout::LayoutError>(())
//! ```

use crate::{ArrayParams, Cell, CellRef, Label, Layer, LayoutError, Library, Shape};
use dfm_geom::{Point, Polygon, Rect, Rotation, Transform, Vector};

// Record type constants (record-type byte).
const HEADER: u8 = 0x00;
const BGNLIB: u8 = 0x01;
const LIBNAME: u8 = 0x02;
const UNITS: u8 = 0x03;
const ENDLIB: u8 = 0x04;
const BGNSTR: u8 = 0x05;
const STRNAME: u8 = 0x06;
const ENDSTR: u8 = 0x07;
const BOUNDARY: u8 = 0x08;
const PATH: u8 = 0x09;
const SREF: u8 = 0x0A;
const AREF: u8 = 0x0B;
const TEXT: u8 = 0x0C;
const LAYER_REC: u8 = 0x0D;
const DATATYPE: u8 = 0x0E;
const WIDTH: u8 = 0x0F;
const XY: u8 = 0x10;
const ENDEL: u8 = 0x11;
const SNAME: u8 = 0x12;
const COLROW: u8 = 0x13;
const TEXTTYPE: u8 = 0x16;
const STRING: u8 = 0x19;
const STRANS: u8 = 0x1A;
const MAG: u8 = 0x1B;
const ANGLE: u8 = 0x1C;
const PATHTYPE: u8 = 0x21;

// Data type codes.
const DT_NONE: u8 = 0;
const DT_BITARRAY: u8 = 1;
const DT_I16: u8 = 2;
const DT_I32: u8 = 3;
const DT_REAL8: u8 = 5;
const DT_STRING: u8 = 6;

/// Encodes an `f64` as a GDSII excess-64 base-16 real ("real8").
///
/// ```
/// let one = dfm_layout::gds::encode_real8(1.0);
/// assert_eq!(one, [0x41, 0x10, 0, 0, 0, 0, 0, 0]);
/// ```
pub fn encode_real8(v: f64) -> [u8; 8] {
    if v == 0.0 {
        return [0; 8];
    }
    let sign = if v < 0.0 { 0x80u8 } else { 0 };
    let mut a = v.abs();
    // Find exponent e (base 16, excess 64) with mantissa in [1/16, 1).
    let mut e: i32 = 64;
    while a >= 1.0 {
        a /= 16.0;
        e += 1;
    }
    while a < 1.0 / 16.0 {
        a *= 16.0;
        e -= 1;
    }
    let mut mant = (a * 2f64.powi(56)).round() as u64;
    if mant >= 1u64 << 56 {
        mant >>= 4;
        e += 1;
    }
    let e = e.clamp(0, 127) as u8;
    let mut out = [0u8; 8];
    out[0] = sign | e;
    for i in 0..7 {
        out[7 - i] = (mant >> (8 * i)) as u8;
    }
    out
}

/// Decodes a GDSII excess-64 real8 into an `f64`.
pub fn decode_real8(b: [u8; 8]) -> f64 {
    let sign = if b[0] & 0x80 != 0 { -1.0 } else { 1.0 };
    let e = (b[0] & 0x7F) as i32 - 64;
    let mut mant: u64 = 0;
    for &byte in &b[1..8] {
        mant = (mant << 8) | byte as u64;
    }
    sign * (mant as f64 / 2f64.powi(56)) * 16f64.powi(e)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn record(&mut self, rectype: u8, dtype: u8, payload: &[u8]) {
        let len = (payload.len() + 4) as u16;
        self.buf.extend_from_slice(&len.to_be_bytes());
        self.buf.push(rectype);
        self.buf.push(dtype);
        self.buf.extend_from_slice(payload);
    }

    fn rec_none(&mut self, rectype: u8) {
        self.record(rectype, DT_NONE, &[]);
    }

    fn rec_i16(&mut self, rectype: u8, values: &[i16]) {
        let mut p = Vec::with_capacity(values.len() * 2);
        for v in values {
            p.extend_from_slice(&v.to_be_bytes());
        }
        self.record(rectype, DT_I16, &p);
    }

    fn rec_i32(&mut self, rectype: u8, values: &[i32]) {
        let mut p = Vec::with_capacity(values.len() * 4);
        for v in values {
            p.extend_from_slice(&v.to_be_bytes());
        }
        self.record(rectype, DT_I32, &p);
    }

    fn rec_string(&mut self, rectype: u8, s: &str) {
        let mut p = s.as_bytes().to_vec();
        if p.len() % 2 == 1 {
            p.push(0);
        }
        self.record(rectype, DT_STRING, &p);
    }

    fn rec_real8(&mut self, rectype: u8, values: &[f64]) {
        let mut p = Vec::with_capacity(values.len() * 8);
        for &v in values {
            p.extend_from_slice(&encode_real8(v));
        }
        self.record(rectype, DT_REAL8, &p);
    }

    fn xy(&mut self, pts: &[Point]) {
        let mut vals = Vec::with_capacity(pts.len() * 2);
        for p in pts {
            vals.push(p.x as i32);
            vals.push(p.y as i32);
        }
        self.rec_i32(XY, &vals);
    }

    fn strans(&mut self, t: &Transform) {
        let needs_strans = t.mirror_x || t.rotation != Rotation::R0;
        if !needs_strans {
            return;
        }
        let flags: u16 = if t.mirror_x { 0x8000 } else { 0 };
        self.record(STRANS, DT_BITARRAY, &flags.to_be_bytes());
        if t.rotation != Rotation::R0 {
            let deg = t.rotation.quarter_turns() as f64 * 90.0;
            self.rec_real8(ANGLE, &[deg]);
        }
    }
}

/// Serialises a library to GDSII stream bytes.
///
/// Timestamps are written as zeros so output is bit-deterministic.
///
/// # Errors
///
/// Currently infallible in practice but returns `Result` for parity with
/// [`from_bytes`] and to leave room for future validation.
pub fn to_bytes(lib: &Library) -> Result<Vec<u8>, LayoutError> {
    let mut w = Writer::new();
    w.rec_i16(HEADER, &[600]);
    w.rec_i16(BGNLIB, &[0; 12]);
    w.rec_string(LIBNAME, &lib.name);
    w.rec_real8(UNITS, &[lib.dbu_in_user_units, lib.dbu_in_meters]);

    for cell in lib.cells() {
        w.rec_i16(BGNSTR, &[0; 12]);
        w.rec_string(STRNAME, &cell.name);
        for (layer, shape) in cell.iter_shapes() {
            w.rec_none(BOUNDARY);
            w.rec_i16(LAYER_REC, &[layer.layer as i16]);
            w.rec_i16(DATATYPE, &[layer.datatype as i16]);
            let pts: Vec<Point> = match shape {
                Shape::Rect(r) => vec![
                    Point::new(r.x0, r.y0),
                    Point::new(r.x1, r.y0),
                    Point::new(r.x1, r.y1),
                    Point::new(r.x0, r.y1),
                    Point::new(r.x0, r.y0),
                ],
                Shape::Polygon(p) => {
                    let mut v = p.points().to_vec();
                    if let Some(&first) = v.first() {
                        v.push(first);
                    }
                    v
                }
            };
            w.xy(&pts);
            w.rec_none(ENDEL);
        }
        for label in &cell.labels {
            w.rec_none(TEXT);
            w.rec_i16(LAYER_REC, &[label.layer.layer as i16]);
            w.rec_i16(TEXTTYPE, &[label.layer.datatype as i16]);
            w.xy(&[label.position]);
            w.rec_string(STRING, &label.text);
            w.rec_none(ENDEL);
        }
        for r in &cell.refs {
            match r.array {
                None => {
                    w.rec_none(SREF);
                    w.rec_string(SNAME, &r.cell);
                    w.strans(&r.transform);
                    w.xy(&[Point::origin() + r.transform.offset]);
                    w.rec_none(ENDEL);
                }
                Some(a) => {
                    w.rec_none(AREF);
                    w.rec_string(SNAME, &r.cell);
                    w.strans(&r.transform);
                    w.rec_i16(COLROW, &[a.cols as i16, a.rows as i16]);
                    let origin = Point::origin() + r.transform.offset;
                    let col_end = origin
                        + r.transform
                            .linear_apply(Vector::new(a.col_pitch * a.cols as i64, 0));
                    let row_end = origin
                        + r.transform
                            .linear_apply(Vector::new(0, a.row_pitch * a.rows as i64));
                    w.xy(&[origin, col_end, row_end]);
                    w.rec_none(ENDEL);
                }
            }
        }
        w.rec_none(ENDSTR);
    }
    w.rec_none(ENDLIB);
    Ok(w.buf)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct Record<'a> {
    offset: usize,
    rectype: u8,
    payload: &'a [u8],
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn next_record(&mut self) -> Result<Record<'a>, LayoutError> {
        let offset = self.pos;
        if self.pos + 4 > self.data.len() {
            return Err(LayoutError::GdsParse {
                offset,
                message: "truncated record header".into(),
            });
        }
        let len = u16::from_be_bytes([self.data[self.pos], self.data[self.pos + 1]]) as usize;
        if len < 4 || self.pos + len > self.data.len() {
            return Err(LayoutError::GdsParse {
                offset,
                message: format!("bad record length {len}"),
            });
        }
        let rectype = self.data[self.pos + 2];
        let payload = &self.data[self.pos + 4..self.pos + len];
        self.pos += len;
        Ok(Record {
            offset,
            rectype,
            payload,
        })
    }
}

impl Record<'_> {
    fn as_i16s(&self) -> Vec<i16> {
        self.payload
            .chunks_exact(2)
            .map(|c| i16::from_be_bytes([c[0], c[1]]))
            .collect()
    }

    fn as_i32s(&self) -> Vec<i32> {
        self.payload
            .chunks_exact(4)
            .map(|c| i32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    fn as_string(&self) -> String {
        let end = self
            .payload
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        String::from_utf8_lossy(&self.payload[..end]).into_owned()
    }

    fn as_real8s(&self) -> Vec<f64> {
        self.payload
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                decode_real8(b)
            })
            .collect()
    }

    fn points(&self) -> Vec<Point> {
        self.as_i32s()
            .chunks_exact(2)
            .map(|c| Point::new(c[0] as i64, c[1] as i64))
            .collect()
    }
}

fn angle_to_rotation(deg: f64, offset: usize) -> Result<Rotation, LayoutError> {
    let q = (deg / 90.0).round();
    if (deg - q * 90.0).abs() > 1e-6 {
        return Err(LayoutError::GdsUnsupported(format!(
            "non-Manhattan angle {deg}° at byte {offset}"
        )));
    }
    Ok(Rotation::from_quarter_turns(q.rem_euclid(4.0) as u8))
}

/// Converts a Manhattan `PATH` centreline to covering rectangles.
///
/// `pathtype` 0 leaves ends flush; 2 extends both ends by half the width.
/// Corner squares are added at interior vertices so bends are covered.
fn path_to_rects(
    pts: &[Point],
    width: i64,
    pathtype: i16,
    offset: usize,
) -> Result<Vec<Rect>, LayoutError> {
    let hw = width / 2;
    let mut rects = Vec::new();
    for (i, w) in pts.windows(2).enumerate() {
        let (a, b) = (w[0], w[1]);
        let d = b - a;
        if !d.is_manhattan() {
            return Err(LayoutError::GdsUnsupported(format!(
                "non-Manhattan path segment at byte {offset}"
            )));
        }
        let ext_start = if pathtype == 2 && i == 0 { hw } else { 0 };
        let ext_end = if pathtype == 2 && i == pts.len() - 2 {
            hw
        } else {
            0
        };
        let rect = if d.x != 0 {
            let (sx, ex) = if a.x < b.x {
                (a.x - ext_start, b.x + ext_end)
            } else {
                (b.x - ext_end, a.x + ext_start)
            };
            Rect::new(sx, a.y - hw, ex, a.y + hw)
        } else {
            let (sy, ey) = if a.y < b.y {
                (a.y - ext_start, b.y + ext_end)
            } else {
                (b.y - ext_end, a.y + ext_start)
            };
            Rect::new(a.x - hw, sy, a.x + hw, ey)
        };
        rects.push(rect);
        if i > 0 {
            // Corner square at the joint vertex.
            rects.push(Rect::new(a.x - hw, a.y - hw, a.x + hw, a.y + hw));
        }
    }
    Ok(rects)
}

/// Parses GDSII stream bytes into a [`Library`].
///
/// # Errors
///
/// [`LayoutError::GdsParse`] for malformed byte streams and
/// [`LayoutError::GdsUnsupported`] for legal GDSII that the workspace does
/// not model (non-Manhattan angles, magnification ≠ 1).
pub fn from_bytes(data: &[u8]) -> Result<Library, LayoutError> {
    let mut r = Reader { data, pos: 0 };
    let mut lib = Library::new("unnamed");
    let mut cur_cell: Option<Cell> = None;

    loop {
        let rec = r.next_record()?;
        match rec.rectype {
            HEADER | BGNLIB | BGNSTR => {}
            LIBNAME => lib.name = rec.as_string(),
            UNITS => {
                let reals = rec.as_real8s();
                if reals.len() == 2 {
                    lib.dbu_in_user_units = reals[0];
                    lib.dbu_in_meters = reals[1];
                }
            }
            STRNAME => {
                cur_cell = Some(Cell::new(rec.as_string()));
            }
            BOUNDARY | PATH | SREF | AREF | TEXT => {
                let kind = rec.rectype;
                let element = parse_element(&mut r, kind, rec.offset)?;
                let cell = cur_cell.as_mut().ok_or_else(|| LayoutError::GdsParse {
                    offset: rec.offset,
                    message: "element outside of structure".into(),
                })?;
                match element {
                    Element::Shape(layer, shape) => cell.add_shape(layer, shape),
                    Element::Shapes(layer, shapes) => {
                        for s in shapes {
                            cell.add_shape(layer, s);
                        }
                    }
                    Element::Ref(cref) => cell.add_ref(cref),
                    Element::Label(label) => cell.add_label(label),
                }
            }
            ENDSTR => {
                if let Some(c) = cur_cell.take() {
                    lib.add_cell(c)?;
                }
            }
            ENDLIB => break,
            _ => {} // Ignore records we do not model (PROPATTR etc.).
        }
    }
    Ok(lib)
}

enum Element {
    Shape(Layer, Shape),
    Shapes(Layer, Vec<Shape>),
    Ref(CellRef),
    Label(Label),
}

// A record whose payload is too short for even one value of its type
// is malformed; defaulting the value would silently change the layout
// (layer 0, width 0, …), so it is a parse error with the record's
// byte offset instead.

fn short_record(rec: &Record<'_>, what: &str) -> LayoutError {
    LayoutError::GdsParse {
        offset: rec.offset,
        message: format!(
            "{what} record with short payload ({} bytes)",
            rec.payload.len()
        ),
    }
}

fn first_i16(rec: &Record<'_>, what: &str) -> Result<i16, LayoutError> {
    rec.as_i16s()
        .first()
        .copied()
        .ok_or_else(|| short_record(rec, what))
}

fn first_i32(rec: &Record<'_>, what: &str) -> Result<i32, LayoutError> {
    rec.as_i32s()
        .first()
        .copied()
        .ok_or_else(|| short_record(rec, what))
}

fn first_real8(rec: &Record<'_>, what: &str) -> Result<f64, LayoutError> {
    rec.as_real8s()
        .first()
        .copied()
        .ok_or_else(|| short_record(rec, what))
}

fn parse_element(r: &mut Reader<'_>, kind: u8, start: usize) -> Result<Element, LayoutError> {
    let mut layer: i16 = 0;
    let mut datatype: i16 = 0;
    let mut width: i64 = 0;
    let mut pathtype: i16 = 0;
    let mut pts: Vec<Point> = Vec::new();
    let mut sname = String::new();
    let mut text = String::new();
    let mut mirror = false;
    let mut rotation = Rotation::R0;
    let mut colrow: Option<(i16, i16)> = None;

    loop {
        let rec = r.next_record()?;
        match rec.rectype {
            LAYER_REC => layer = first_i16(&rec, "LAYER")?,
            DATATYPE | TEXTTYPE => datatype = first_i16(&rec, "DATATYPE")?,
            WIDTH => width = first_i32(&rec, "WIDTH")? as i64,
            PATHTYPE => pathtype = first_i16(&rec, "PATHTYPE")?,
            XY => pts = rec.points(),
            SNAME => sname = rec.as_string(),
            STRING => text = rec.as_string(),
            STRANS => {
                if let Some(&b0) = rec.payload.first() {
                    mirror = b0 & 0x80 != 0;
                }
            }
            ANGLE => {
                let deg = first_real8(&rec, "ANGLE")?;
                rotation = angle_to_rotation(deg, rec.offset)?;
            }
            MAG => {
                let mag = first_real8(&rec, "MAG")?;
                if (mag - 1.0).abs() > 1e-9 {
                    return Err(LayoutError::GdsUnsupported(format!(
                        "magnification {mag} at byte {}",
                        rec.offset
                    )));
                }
            }
            COLROW => {
                let v = rec.as_i16s();
                if v.len() != 2 {
                    return Err(LayoutError::GdsParse {
                        offset: rec.offset,
                        message: format!("COLROW record with {} values, want 2", v.len()),
                    });
                }
                // GDSII counts run 1..=32767; a cast would read -1 as
                // 65 535 instances.
                if v[0] <= 0 || v[1] <= 0 {
                    return Err(LayoutError::GdsParse {
                        offset: rec.offset,
                        message: format!("COLROW ({}, {}) must be positive", v[0], v[1]),
                    });
                }
                colrow = Some((v[0], v[1]));
            }
            ENDEL => break,
            _ => {}
        }
    }

    if layer < 0 || datatype < 0 {
        return Err(LayoutError::GdsParse {
            offset: start,
            message: format!("negative layer/datatype {layer}/{datatype}"),
        });
    }
    let lay = Layer::new(layer as u16, datatype as u16);
    match kind {
        BOUNDARY => {
            if pts.len() < 4 {
                return Err(LayoutError::GdsParse {
                    offset: start,
                    message: "boundary with fewer than 4 points".into(),
                });
            }
            // Drop the closing point if present.
            if pts.first() == pts.last() {
                pts.pop();
            }
            let shape = match Polygon::new(pts.clone()) {
                Ok(p) => match p.as_rect() {
                    Some(rect) => Shape::Rect(rect),
                    None => Shape::Polygon(p),
                },
                Err(e) => {
                    return Err(LayoutError::GdsUnsupported(format!(
                        "boundary at byte {start} is not a valid rectilinear polygon: {e}"
                    )))
                }
            };
            Ok(Element::Shape(lay, shape))
        }
        PATH => {
            let rects = path_to_rects(&pts, width, pathtype, start)?;
            Ok(Element::Shapes(
                lay,
                rects.into_iter().map(Shape::Rect).collect(),
            ))
        }
        SREF => {
            let origin = pts.first().copied().ok_or_else(|| LayoutError::GdsParse {
                offset: start,
                message: "sref without an xy origin".into(),
            })?;
            Ok(Element::Ref(CellRef::new(
                sname,
                Transform::new(origin.to_vector(), rotation, mirror),
            )))
        }
        AREF => {
            let (cols, rows) = colrow.ok_or_else(|| LayoutError::GdsParse {
                offset: start,
                message: "aref without colrow".into(),
            })?;
            if pts.len() != 3 {
                return Err(LayoutError::GdsParse {
                    offset: start,
                    message: "aref xy must have 3 points".into(),
                });
            }
            let origin = pts[0];
            let t = Transform::new(origin.to_vector(), rotation, mirror);
            let inv = Transform::new(Vector::zero(), rotation, mirror).inverse();
            // In the reference's frame the column vector must be
            // `(k·cols, 0)` and the row vector `(0, k·rows)`: a lattice
            // this workspace can place, with no pitch truncated.
            let col_total = inv.linear_apply(pts[1] - origin);
            let row_total = inv.linear_apply(pts[2] - origin);
            let (n_cols, n_rows) = (i64::from(cols), i64::from(rows));
            if col_total.y != 0
                || col_total.x % n_cols != 0
                || row_total.x != 0
                || row_total.y % n_rows != 0
            {
                return Err(LayoutError::GdsUnsupported(format!(
                    "aref at byte {start} is not a {cols} x {rows} lattice along its reference's axes: \
                     column vector ({}, {}), row vector ({}, {})",
                    col_total.x, col_total.y, row_total.x, row_total.y
                )));
            }
            let (col_pitch, row_pitch) = (col_total.x / n_cols, row_total.y / n_rows);
            Ok(Element::Ref(CellRef::array(
                sname,
                t,
                ArrayParams {
                    cols: cols as u16,
                    rows: rows as u16,
                    col_pitch,
                    row_pitch,
                },
            )))
        }
        TEXT => {
            let position = pts.first().copied().ok_or_else(|| LayoutError::GdsParse {
                offset: start,
                message: "text without an xy position".into(),
            })?;
            Ok(Element::Label(Label {
                layer: lay,
                position,
                text,
            }))
        }
        other => Err(LayoutError::GdsParse {
            offset: start,
            message: format!("unexpected element kind 0x{other:02x}"),
        }),
    }
}

/// Writes a library to a file.
///
/// # Errors
///
/// Propagates I/O failures and serialisation errors.
pub fn write_file(lib: &Library, path: impl AsRef<std::path::Path>) -> Result<(), LayoutError> {
    let bytes = to_bytes(lib)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Reads a library from a file.
///
/// # Errors
///
/// Propagates I/O failures and [`LayoutError::GdsParse`] /
/// [`LayoutError::GdsUnsupported`].
pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<Library, LayoutError> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    #[test]
    fn real8_known_values() {
        assert_eq!(encode_real8(1.0), [0x41, 0x10, 0, 0, 0, 0, 0, 0]);
        assert_eq!(encode_real8(0.0), [0; 8]);
        assert_eq!(encode_real8(-1.0)[0], 0xC1);
        assert_eq!(decode_real8([0x41, 0x10, 0, 0, 0, 0, 0, 0]), 1.0);
    }

    #[test]
    fn real8_roundtrip() {
        for &v in &[1e-3, 1e-9, 2.0, 0.5, 12345.678, -0.001, 1e12, -7.25e-8] {
            let enc = encode_real8(v);
            let dec = decode_real8(enc);
            assert!(
                ((dec - v) / v).abs() < 1e-14,
                "roundtrip failed for {v}: got {dec}"
            );
        }
    }

    fn sample_library() -> Library {
        let mut lib = Library::new("testlib");
        let mut leaf = Cell::new("LEAF");
        leaf.add_rect(layers::METAL1, Rect::new(0, 0, 100, 50));
        leaf.add_shape(
            layers::POLY,
            Polygon::new([
                Point::new(0, 0),
                Point::new(30, 0),
                Point::new(30, 10),
                Point::new(10, 10),
                Point::new(10, 30),
                Point::new(0, 30),
            ])
            .expect("valid polygon"),
        );
        leaf.add_label(Label {
            layer: layers::MARKER,
            position: Point::new(5, 5),
            text: "net42".into(),
        });
        lib.add_cell(leaf).expect("add leaf");
        let mut top = Cell::new("TOP");
        top.add_ref(CellRef::new(
            "LEAF",
            Transform::new(Vector::new(500, 0), Rotation::R90, true),
        ));
        top.add_ref(CellRef::array(
            "LEAF",
            Transform::translate(Vector::new(0, 1000)),
            ArrayParams {
                cols: 3,
                rows: 2,
                col_pitch: 200,
                row_pitch: 100,
            },
        ));
        lib.add_cell(top).expect("add top");
        lib
    }

    #[test]
    fn library_roundtrip_preserves_geometry() {
        let lib = sample_library();
        let bytes = to_bytes(&lib).expect("serialise");
        let back = from_bytes(&bytes).expect("parse");
        assert_eq!(back.name, "testlib");
        assert_eq!(back.cell_count(), 2);

        let top = back.cell_id("TOP").expect("top exists");
        let flat_orig = lib
            .flatten(lib.cell_id("TOP").expect("orig top"))
            .expect("flatten original");
        let flat_back = back.flatten(top).expect("flatten parsed");
        for layer in [layers::METAL1, layers::POLY] {
            assert_eq!(
                flat_orig.region(layer).area(),
                flat_back.region(layer).area(),
                "layer {layer} area mismatch"
            );
            assert_eq!(
                flat_orig.region(layer).bbox(),
                flat_back.region(layer).bbox()
            );
        }
        let leaf = back.cell(back.cell_id("LEAF").expect("leaf"));
        assert_eq!(leaf.labels.len(), 1);
        assert_eq!(leaf.labels[0].text, "net42");
    }

    #[test]
    fn units_roundtrip() {
        let lib = sample_library();
        let back = from_bytes(&to_bytes(&lib).expect("ser")).expect("parse");
        assert!((back.dbu_in_user_units - 1e-3).abs() < 1e-12);
        assert!((back.dbu_in_meters - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn deterministic_output() {
        let lib = sample_library();
        assert_eq!(to_bytes(&lib).expect("a"), to_bytes(&lib).expect("b"));
    }

    #[test]
    fn truncated_stream_rejected() {
        let lib = sample_library();
        let bytes = to_bytes(&lib).expect("ser");
        let err = from_bytes(&bytes[..bytes.len() - 6]);
        assert!(matches!(err, Err(LayoutError::GdsParse { .. })));
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(
            from_bytes(&[0x00, 0x01]),
            Err(LayoutError::GdsParse { .. })
        ));
    }

    #[test]
    fn path_conversion_straight() {
        let rects =
            path_to_rects(&[Point::new(0, 0), Point::new(100, 0)], 20, 0, 0).expect("convert");
        assert_eq!(rects, vec![Rect::new(0, -10, 100, 10)]);
    }

    #[test]
    fn path_conversion_extended_ends() {
        let rects =
            path_to_rects(&[Point::new(0, 0), Point::new(100, 0)], 20, 2, 0).expect("convert");
        assert_eq!(rects, vec![Rect::new(-10, -10, 110, 10)]);
    }

    #[test]
    fn path_conversion_bend_covers_corner() {
        let rects = path_to_rects(
            &[Point::new(0, 0), Point::new(100, 0), Point::new(100, 100)],
            20,
            0,
            0,
        )
        .expect("convert");
        let region = dfm_geom::Region::from_rects(rects);
        // The corner pixel outside both straight segments must be covered.
        assert!(
            region.contains_point(Point::new(105, 5)) || region.contains_point(Point::new(95, 5))
        );
        assert!(region.contains_point(Point::new(50, 0)));
        assert!(region.contains_point(Point::new(100, 50)));
    }

    #[test]
    fn non_manhattan_angle_rejected() {
        // Hand-craft a minimal stream with a 45° SREF.
        let mut w = Writer::new();
        w.rec_i16(HEADER, &[600]);
        w.rec_i16(BGNLIB, &[0; 12]);
        w.rec_string(LIBNAME, "x");
        w.rec_real8(UNITS, &[1e-3, 1e-9]);
        w.rec_i16(BGNSTR, &[0; 12]);
        w.rec_string(STRNAME, "TOP");
        w.rec_none(SREF);
        w.rec_string(SNAME, "LEAF");
        w.record(STRANS, DT_BITARRAY, &[0, 0]);
        w.rec_real8(ANGLE, &[45.0]);
        w.xy(&[Point::new(0, 0)]);
        w.rec_none(ENDEL);
        w.rec_none(ENDSTR);
        w.rec_none(ENDLIB);
        assert!(matches!(
            from_bytes(&w.buf),
            Err(LayoutError::GdsUnsupported(_))
        ));
    }

    /// A stream prelude up to and including `BGNSTR`/`STRNAME`, ready
    /// for one hand-crafted element.
    fn element_stream(build: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        w.rec_i16(HEADER, &[600]);
        w.rec_i16(BGNLIB, &[0; 12]);
        w.rec_string(LIBNAME, "x");
        w.rec_real8(UNITS, &[1e-3, 1e-9]);
        w.rec_i16(BGNSTR, &[0; 12]);
        w.rec_string(STRNAME, "TOP");
        build(&mut w);
        w.rec_none(ENDSTR);
        w.rec_none(ENDLIB);
        w.buf
    }

    fn expect_parse_error(bytes: &[u8], needle: &str) {
        match from_bytes(bytes) {
            Err(LayoutError::GdsParse { message, .. }) => {
                assert!(
                    message.contains(needle),
                    "diagnostic '{message}' lacks '{needle}'"
                );
            }
            other => panic!("wanted GdsParse mentioning '{needle}', got {other:?}"),
        }
    }

    #[test]
    fn empty_scalar_records_are_diagnosed_not_defaulted() {
        // Each of these records legally carries at least one value; an
        // empty payload used to silently default (layer 0, width 0,
        // angle 0°…) and now must name the record in a parse error.
        type BuildCase = (&'static str, Box<dyn Fn(&mut Writer)>);
        let cases: [BuildCase; 5] = [
            (
                "LAYER",
                Box::new(|w: &mut Writer| {
                    w.rec_none(BOUNDARY);
                    w.record(LAYER_REC, DT_I16, &[]);
                }),
            ),
            (
                "DATATYPE",
                Box::new(|w: &mut Writer| {
                    w.rec_none(BOUNDARY);
                    w.rec_i16(LAYER_REC, &[4]);
                    w.record(DATATYPE, DT_I16, &[]);
                }),
            ),
            (
                "WIDTH",
                Box::new(|w: &mut Writer| {
                    w.rec_none(PATH);
                    w.rec_i16(LAYER_REC, &[4]);
                    w.record(WIDTH, DT_I32, &[0, 1]); // 2 bytes: short for an i32
                }),
            ),
            (
                "PATHTYPE",
                Box::new(|w: &mut Writer| {
                    w.rec_none(PATH);
                    w.rec_i16(LAYER_REC, &[4]);
                    w.record(PATHTYPE, DT_I16, &[9]); // 1 byte: short for an i16
                }),
            ),
            (
                "ANGLE",
                Box::new(|w: &mut Writer| {
                    w.rec_none(SREF);
                    w.rec_string(SNAME, "LEAF");
                    w.record(ANGLE, DT_REAL8, &[0x41, 0x10]); // 2 bytes: short real8
                }),
            ),
        ];
        for (needle, build) in cases {
            let bytes = element_stream(|w| {
                build(w);
                w.rec_none(ENDEL);
            });
            expect_parse_error(&bytes, needle);
        }
    }

    #[test]
    fn empty_mag_record_is_diagnosed() {
        let bytes = element_stream(|w| {
            w.rec_none(SREF);
            w.rec_string(SNAME, "LEAF");
            w.record(MAG, DT_REAL8, &[]);
            w.xy(&[Point::new(0, 0)]);
            w.rec_none(ENDEL);
        });
        expect_parse_error(&bytes, "MAG");
    }

    #[test]
    fn sref_without_xy_origin_is_diagnosed() {
        let bytes = element_stream(|w| {
            w.rec_none(SREF);
            w.rec_string(SNAME, "LEAF");
            w.rec_none(ENDEL); // no XY record at all
        });
        expect_parse_error(&bytes, "sref without an xy origin");

        let bytes = element_stream(|w| {
            w.rec_none(SREF);
            w.rec_string(SNAME, "LEAF");
            w.xy(&[]); // XY present but empty
            w.rec_none(ENDEL);
        });
        expect_parse_error(&bytes, "sref without an xy origin");
    }

    #[test]
    fn text_without_xy_position_is_diagnosed() {
        let bytes = element_stream(|w| {
            w.rec_none(TEXT);
            w.rec_i16(LAYER_REC, &[63]);
            w.rec_i16(TEXTTYPE, &[0]);
            w.rec_string(STRING, "label");
            w.rec_none(ENDEL);
        });
        expect_parse_error(&bytes, "text without an xy position");
    }

    #[test]
    fn malformed_colrow_is_diagnosed() {
        // One value where two are wanted, then counts that are not
        // positive: a zero, and negatives a cast would wrap to 65 535.
        for colrow in [&[3][..], &[0, 3], &[-1, 1], &[-1, -1]] {
            let bytes = element_stream(|w| {
                w.rec_none(AREF);
                w.rec_string(SNAME, "LEAF");
                w.rec_i16(COLROW, colrow);
                w.xy(&[Point::new(0, 0), Point::new(600, 0), Point::new(0, 200)]);
                w.rec_none(ENDEL);
            });
            expect_parse_error(&bytes, "COLROW");
        }
    }

    /// A column vector that is not a multiple of the column count, one
    /// off the reference's x axis, and a skewed row vector are each
    /// refused at the element's offset, not truncated or dropped.
    #[test]
    fn uneven_or_skewed_aref_is_refused() {
        let mut offset = 0;
        for (col, row) in [
            ((601, 0), (0, 200)),
            ((600, 7), (0, 200)),
            ((600, 0), (30, 200)),
        ] {
            let bytes = element_stream(|w| {
                offset = w.buf.len();
                w.rec_none(AREF);
                w.rec_string(SNAME, "LEAF");
                w.rec_i16(COLROW, &[3, 2]);
                w.xy(&[
                    Point::new(0, 0),
                    Point::new(col.0, col.1),
                    Point::new(row.0, row.1),
                ]);
                w.rec_none(ENDEL);
            });
            match from_bytes(&bytes) {
                Err(LayoutError::GdsUnsupported(message)) => {
                    assert!(
                        message.contains(&format!("aref at byte {offset} ")),
                        "{message}"
                    )
                }
                other => panic!("{col:?} / {row:?}: wanted GdsUnsupported, got {other:?}"),
            }
        }
    }

    /// An array under a rotated, mirrored transform with negative pitches
    /// is written and read back as the same reference.
    #[test]
    fn rotated_mirrored_aref_round_trips() {
        let mut lib = Library::new("arr");
        let mut leaf = Cell::new("LEAF");
        leaf.add_rect(layers::METAL1, Rect::new(0, 0, 50, 20));
        lib.add_cell(leaf).expect("add leaf");
        let mut top = Cell::new("TOP");
        for rotation in [Rotation::R90, Rotation::R180, Rotation::R270] {
            top.add_ref(CellRef::array(
                "LEAF",
                Transform::new(Vector::new(-70, 130), rotation, true),
                ArrayParams {
                    cols: 4,
                    rows: 3,
                    col_pitch: -810,
                    row_pitch: 720,
                },
            ));
        }
        lib.add_cell(top).expect("add top");
        let back = from_bytes(&to_bytes(&lib).expect("serialise")).expect("parse");
        let refs = |lib: &Library| lib.cell(lib.cell_id("TOP").expect("top")).refs.clone();
        assert_eq!(refs(&back), refs(&lib));
    }

    #[test]
    fn negative_layer_is_diagnosed_not_wrapped() {
        let bytes = element_stream(|w| {
            w.rec_none(BOUNDARY);
            w.rec_i16(LAYER_REC, &[-2]);
            w.rec_i16(DATATYPE, &[0]);
            w.xy(&[
                Point::new(0, 0),
                Point::new(10, 0),
                Point::new(10, 10),
                Point::new(0, 10),
                Point::new(0, 0),
            ]);
            w.rec_none(ENDEL);
        });
        expect_parse_error(&bytes, "negative layer");
    }

    #[test]
    fn diagnostics_carry_the_record_offset() {
        let bytes = element_stream(|w| {
            w.rec_none(BOUNDARY);
            w.record(LAYER_REC, DT_I16, &[]);
        });
        match from_bytes(&bytes) {
            Err(LayoutError::GdsParse { offset, .. }) => {
                assert!(
                    offset > 0 && offset < bytes.len(),
                    "offset {offset} out of stream"
                );
            }
            other => panic!("wanted GdsParse, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let lib = sample_library();
        let dir = std::env::temp_dir();
        let path = dir.join("dfm_layout_gds_test.gds");
        write_file(&lib, &path).expect("write");
        let back = read_file(&path).expect("read");
        assert_eq!(back.cell_count(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
