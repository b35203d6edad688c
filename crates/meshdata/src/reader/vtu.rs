//! `.vtu` reader for both encodings produced by [`crate::writer::vtu`].
//!
//! Exists so checkpoints can be round-trip-validated: the integration tests
//! write a solver state, read it back, and compare field values exactly.

use crate::array::{ArrayData, DataArray};
use crate::ugrid::{CellType, UnstructuredGrid};
use crate::xml::{self, XmlNode};
use crate::{Error, Result};

/// Parse a `.vtu` document (bytes, because appended blocks are binary).
///
/// # Errors
/// Malformed XML, unknown encodings, size mismatches, or invalid grids.
pub fn read_vtu(input: &[u8]) -> Result<UnstructuredGrid> {
    // Split off the appended blob if present: the XML before <AppendedData>
    // plus a synthetic close tag is well-formed on its own.
    let (header_xml, blob) = match find_bytes(input, b"<AppendedData") {
        Some(tag_pos) => {
            let underscore = find_bytes(&input[tag_pos..], b">_")
                .map(|i| tag_pos + i + 2)
                .ok_or_else(|| Error::Parse("AppendedData without '_' marker".into()))?;
            let end = find_bytes(&input[underscore..], b"</AppendedData>")
                .map(|i| underscore + i)
                .ok_or_else(|| Error::Parse("unterminated AppendedData".into()))?;
            let mut header = String::from_utf8(input[..tag_pos].to_vec())
                .map_err(|_| Error::Parse("non-utf8 vtu header".into()))?;
            header.push_str("</VTKFile>");
            (header, Some(&input[underscore..end]))
        }
        None => (
            String::from_utf8(input.to_vec())
                .map_err(|_| Error::Parse("non-utf8 vtu document".into()))?,
            None,
        ),
    };

    let root = xml::parse(&header_xml)?;
    if root.name != "VTKFile" {
        return Err(Error::Parse(format!(
            "expected VTKFile root, got {}",
            root.name
        )));
    }
    let piece = root
        .find("Piece")
        .ok_or_else(|| Error::Parse("no <Piece> element".into()))?;
    let n_points: usize = piece.attr_parse("NumberOfPoints")?;
    let n_cells: usize = piece.attr_parse("NumberOfCells")?;

    let mut grid = UnstructuredGrid::new();

    // Points.
    let points_da = piece
        .child("Points")
        .and_then(|p| p.child("DataArray"))
        .ok_or_else(|| Error::Parse("missing Points/DataArray".into()))?;
    let coords = read_array_values(points_da, blob)?;
    let coords = as_f64(&coords);
    if n_points.checked_mul(3) != Some(coords.len()) {
        return Err(Error::Parse(format!(
            "points array has {} scalars for {n_points} points",
            coords.len()
        )));
    }
    for c in coords.chunks_exact(3) {
        grid.add_point([c[0], c[1], c[2]]);
    }

    // Cells.
    let cells = piece
        .child("Cells")
        .ok_or_else(|| Error::Parse("missing <Cells>".into()))?;
    let mut conn = None;
    let mut offs = None;
    let mut types = None;
    for da in cells.children_named("DataArray") {
        let name = da.attr("Name").unwrap_or("");
        let values = read_array_values(da, blob)?;
        match name {
            "connectivity" => conn = Some(values),
            "offsets" => offs = Some(values),
            "types" => types = Some(values),
            other => return Err(Error::Parse(format!("unknown cell array '{other}'"))),
        }
    }
    let conn = conn.ok_or_else(|| Error::Parse("missing connectivity".into()))?;
    let offs = offs.ok_or_else(|| Error::Parse("missing offsets".into()))?;
    let types = types.ok_or_else(|| Error::Parse("missing types".into()))?;
    let conn = as_i64(&conn);
    let offs = as_i64(&offs);
    let type_vals: Vec<u8> = match &types {
        ArrayData::U8(v) => v.clone(),
        other => as_i64(other).iter().map(|&x| x as u8).collect(),
    };
    if offs.len() != n_cells || type_vals.len() != n_cells {
        return Err(Error::Parse("offsets/types length != cell count".into()));
    }
    // The offsets come from the file: each cell must end after it starts,
    // inside the connectivity, and span its type's point count.
    let mut start = 0usize;
    for (c, (&end, tv)) in offs.iter().zip(&type_vals).enumerate() {
        let ctype = CellType::from_u8(*tv)
            .ok_or_else(|| Error::Parse(format!("cell {c} has unknown type {tv}")))?;
        let ids = usize::try_from(end)
            .ok()
            .and_then(|end| conn.get(start..end))
            .filter(|ids| ids.len() == ctype.n_points())
            .ok_or_else(|| {
                Error::Parse(format!(
                    "cell {c} ({ctype:?}) has offsets {start}..{end} into {} connectivity entries",
                    conn.len()
                ))
            })?;
        grid.add_cell(ctype, ids);
        start += ids.len();
    }

    // Attributes.
    if let Some(pd) = piece.child("PointData") {
        for da in pd.children_named("DataArray") {
            grid.add_point_data(read_attribute(da, blob)?)?;
        }
    }
    if let Some(cd) = piece.child("CellData") {
        for da in cd.children_named("DataArray") {
            grid.add_cell_data(read_attribute(da, blob)?)?;
        }
    }

    grid.validate()?;
    Ok(grid)
}

fn read_attribute(da: &XmlNode, blob: Option<&[u8]>) -> Result<DataArray> {
    let name = da.attr("Name").unwrap_or("unnamed").to_string();
    let components: usize = da
        .attr("NumberOfComponents")
        .map(|s| s.parse().unwrap_or(1))
        .unwrap_or(1);
    let data = read_array_values(da, blob)?;
    // `DataArray::len` divides by the component count.
    if components == 0 || data.scalar_len() % components != 0 {
        return Err(Error::Parse(format!(
            "array '{name}' has {} scalars for {components} components",
            data.scalar_len()
        )));
    }
    Ok(DataArray {
        name,
        components,
        data,
    })
}

fn read_array_values(da: &XmlNode, blob: Option<&[u8]>) -> Result<ArrayData> {
    let ty = da
        .attr("type")
        .ok_or_else(|| Error::Parse("DataArray without type".into()))?
        .to_string();
    match da.attr("format") {
        Some("ascii") | None => parse_ascii(&ty, &da.text),
        Some("appended") => {
            let blob =
                blob.ok_or_else(|| Error::Parse("appended array but no AppendedData".into()))?;
            // Offset and length come from the file: `[u32 nbytes][payload]`
            // at `offset` must lie inside the blob.
            let offset: usize = da.attr_parse("offset")?;
            let (header, rest) = blob
                .get(offset..)
                .and_then(|b| b.split_first_chunk::<4>())
                .ok_or_else(|| Error::Parse("appended offset beyond blob".into()))?;
            let payload = rest
                .get(..u32::from_le_bytes(*header) as usize)
                .ok_or_else(|| Error::Parse("appended payload beyond blob".into()))?;
            parse_raw(&ty, payload)
        }
        Some(other) => Err(Error::Parse(format!("unsupported format '{other}'"))),
    }
}

fn parse_ascii(ty: &str, text: &str) -> Result<ArrayData> {
    let tokens = text.split_whitespace();
    macro_rules! collect {
        ($t:ty) => {
            tokens
                .map(|t| {
                    t.parse::<$t>()
                        .map_err(|_| Error::Parse(format!("bad {ty} value '{t}'")))
                })
                .collect::<Result<Vec<$t>>>()?
        };
    }
    Ok(match ty {
        "Float32" => ArrayData::F32(collect!(f32)),
        "Float64" => ArrayData::F64(collect!(f64)),
        "Int64" | "Int32" => ArrayData::I64(collect!(i64)),
        "UInt8" => ArrayData::U8(collect!(u8)),
        other => return Err(Error::Parse(format!("unsupported array type '{other}'"))),
    })
}

fn parse_raw(ty: &str, bytes: &[u8]) -> Result<ArrayData> {
    fn chunked<const N: usize, T>(bytes: &[u8], f: impl Fn([u8; N]) -> T) -> Result<Vec<T>> {
        if !bytes.len().is_multiple_of(N) {
            return Err(Error::Parse(
                "raw payload not a multiple of scalar size".into(),
            ));
        }
        Ok(bytes
            .chunks_exact(N)
            .map(|c| f(c.try_into().unwrap()))
            .collect())
    }
    Ok(match ty {
        "Float32" => ArrayData::F32(chunked(bytes, f32::from_le_bytes)?),
        "Float64" => ArrayData::F64(chunked(bytes, f64::from_le_bytes)?),
        "Int64" => ArrayData::I64(chunked(bytes, i64::from_le_bytes)?),
        "UInt8" => ArrayData::U8(bytes.to_vec()),
        other => return Err(Error::Parse(format!("unsupported array type '{other}'"))),
    })
}

fn as_f64(data: &ArrayData) -> Vec<f64> {
    (0..data.scalar_len()).map(|i| data.get_as_f64(i)).collect()
}

fn as_i64(data: &ArrayData) -> Vec<i64> {
    (0..data.scalar_len())
        .map(|i| data.get_as_f64(i) as i64)
        .collect()
}

fn find_bytes(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::vtu::{write_vtu, Encoding};

    fn sample_grid() -> UnstructuredGrid {
        let mut g = UnstructuredGrid::new();
        for z in [0.0, 2.0] {
            for y in [0.0, 1.0] {
                for x in [0.0, 1.5] {
                    g.add_point([x, y, z]);
                }
            }
        }
        g.add_cell(CellType::Hexahedron, &[0, 1, 3, 2, 4, 5, 7, 6]);
        g.add_point_data(DataArray::scalars_f64(
            "pressure",
            (0..8).map(|i| (i as f64).sqrt()).collect(),
        ))
        .unwrap();
        g.add_point_data(DataArray::vectors_f64(
            "velocity",
            (0..24).map(|i| i as f64 * 0.1 - 1.0).collect(),
        ))
        .unwrap();
        g.add_cell_data(DataArray::scalars_f32("rank", vec![7.0]))
            .unwrap();
        g
    }

    #[test]
    fn ascii_roundtrip_is_exact_for_representable_values() {
        let g = sample_grid();
        let mut buf = Vec::new();
        write_vtu(&g, Encoding::Ascii, &mut buf).unwrap();
        let back = read_vtu(&buf).unwrap();
        assert_eq!(back.n_points(), g.n_points());
        assert_eq!(back.n_cells(), g.n_cells());
        assert_eq!(back.connectivity, g.connectivity);
        assert_eq!(back.types, g.types);
        // Rust prints f64 with enough digits to round-trip exactly.
        assert_eq!(back.point_data[0], g.point_data[0]);
        assert_eq!(back.cell_data[0], g.cell_data[0]);
    }

    #[test]
    fn appended_roundtrip_is_bit_exact() {
        let g = sample_grid();
        let mut buf = Vec::new();
        write_vtu(&g, Encoding::Appended, &mut buf).unwrap();
        let back = read_vtu(&buf).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn rejects_truncated_appended_blob() {
        let g = sample_grid();
        let mut buf = Vec::new();
        write_vtu(&g, Encoding::Appended, &mut buf).unwrap();
        // Chop the file in the middle of the blob.
        let cut = buf.len() - 40;
        assert!(read_vtu(&buf[..cut]).is_err());
    }

    #[test]
    fn rejects_wrong_root_element() {
        assert!(read_vtu(b"<NotVtk></NotVtk>").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_vtu(b"plainly not xml").is_err());
        assert!(read_vtu(&[]).is_err());
    }
}
