//! The reply writer against a model of the decode-then-format chain it
//! replaced. `decode_result` only validates a result bag and
//! `Display for Response::Rows` writes the rows straight from it; the
//! [`model`] below decodes every row into owned `SqlValue`s first (one
//! `Vec` per row, one `String` per text cell, each numeric cell compared
//! against a freshly built `[a]`) and formats each cell with `write!`.
//! Both must give the same bytes, or the same first error, for every bag:
//! well-formed ones over mixed plain and numeric columns with the extreme
//! integers, awkward strings and large multiplicities, and one of each
//! malformed shape. The model's row count is the exact `u128` sum.
//!
//! The vendored `proptest` does not shrink: a failing case prints the seed
//! that replays it (`PROPTEST_SEED`), and every assertion names its input.

use std::fmt::Write as _;

use balg_core::bag::Bag;
use balg_core::derived::{int_value, unit_tuple, UNIT_ATOM, UNIT_ATOM_B};
use balg_core::natural::Natural;
use balg_core::value::{Atom, Value};
use balg_sql::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

type Rows = Vec<(Vec<SqlValue>, u64)>;

/// One cell the way the replaced decoder read it.
fn model_cell(value: &Value, numeric: bool) -> Option<SqlValue> {
    if numeric {
        let bag = value.as_bag()?;
        let unit = unit_tuple();
        if !bag.iter().all(|(v, _)| *v == unit) {
            return None;
        }
        Some(SqlValue::Int(
            i64::try_from(bag.cardinality().to_u64()?).ok()?,
        ))
    } else {
        match value {
            Value::Atom(Atom::Int(v)) => Some(SqlValue::Int(*v)),
            Value::Atom(Atom::Str(s)) => Some(SqlValue::Str(s.to_string())),
            _ => None,
        }
    }
}

/// The replaced decode loop: every row into owned values, first error out.
fn model_rows(bag: &Bag, columns: &[Column]) -> Result<Rows, String> {
    let fail = |what: String| SqlError::Decode(what).to_string();
    let mut rows = Vec::new();
    for (row, mult) in bag.iter() {
        let fields = row.as_tuple().ok_or_else(|| fail(row.to_string()))?;
        if fields.len() != columns.len() {
            return Err(fail(format!(
                "row arity {} vs output arity {}",
                fields.len(),
                columns.len()
            )));
        }
        let decoded = fields
            .iter()
            .zip(columns)
            .map(|(value, column)| {
                model_cell(value, column.numeric).ok_or_else(|| fail(value.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let m = mult
            .to_u64()
            .ok_or_else(|| fail("multiplicity over u64".into()))?;
        rows.push((decoded, m));
    }
    Ok(rows)
}

/// The replaced formatter: `write!` per cell, `  xN` per row, then the
/// total.
fn model_text(rows: &Rows) -> String {
    let mut out = String::new();
    for (row, mult) in rows {
        for (ix, cell) in row.iter().enumerate() {
            if ix > 0 {
                out.push_str(" | ");
            }
            write!(out, "{cell}").unwrap();
        }
        writeln!(out, "  x{mult}").unwrap();
    }
    let total: u128 = rows.iter().map(|(_, m)| u128::from(*m)).sum();
    write!(out, "({total} rows)").unwrap();
    out
}

fn model(bag: &Bag, columns: &[Column]) -> Result<String, String> {
    model_rows(bag, columns).map(|rows| model_text(&rows))
}

/// The chain every read runs: validate, then write from the bag.
fn actual(bag: &Bag, columns: &[Column]) -> Result<String, String> {
    decode_result(bag, columns.to_vec())
        .map(|result| Response::Rows(result).to_string())
        .map_err(|e| e.to_string())
}

fn columns(numeric: &[bool]) -> Vec<Column> {
    numeric
        .iter()
        .enumerate()
        .map(|(ix, &numeric)| Column {
            name: format!("c{ix}"),
            numeric,
        })
        .collect()
}

/// Assert the writer and the model agree on `bag`, and that `rows()`
/// decodes what the model decodes; return the writer's reply.
fn check(bag: &Bag, columns: &[Column]) -> Result<String, String> {
    let expected = model(bag, columns);
    let got = actual(bag, columns);
    assert_eq!(got, expected, "bag {bag} over {columns:?}");
    if let Ok(result) = decode_result(bag, columns.to_vec()) {
        assert_eq!(
            Ok(result.rows()),
            model_rows(bag, columns),
            "rows() of {bag} over {columns:?}"
        );
        assert_eq!(result.columns(), columns);
    }
    got
}

/// A plain cell: an integer atom or a text atom, extremes included. The
/// long multibyte text (up to 1 400 bytes) outgrows the writer's stack
/// buffer on its own or lands across its end.
fn plain(k: u8, n: i64) -> Value {
    match k {
        0 => Value::int(i64::MIN),
        1 => Value::int(i64::MAX),
        2 => Value::int(-1),
        3 => Value::int(0),
        4 => Value::int(n),
        5 => Value::sym(""),
        6 => Value::sym(" | "),
        7 => Value::sym("two\nlines"),
        8 => Value::sym("x  x3"),
        9 => Value::sym("ünï"),
        10 => Value::sym(&"é|".repeat((n.unsigned_abs() % 467) as usize)),
        _ => Value::sym(UNIT_ATOM),
    }
}

/// A numeric cell `⟦[a]ⁿ⟧`, 0 and `i64::MAX` included.
fn numeric(k: u8, n: i64) -> Value {
    match k {
        0 => int_value(0u64),
        1 => int_value(i64::MAX as u64),
        2 => int_value(1u64),
        _ => int_value(n.unsigned_abs() % 1000),
    }
}

/// A multiplicity, `u64::MAX` included.
fn multiplicity(k: u8, n: i64) -> Natural {
    match k {
        0 => Natural::from(u64::MAX),
        1 => Natural::from(1u64 << 63),
        2 => Natural::from(n.unsigned_abs().max(1)),
        _ => Natural::from(u64::from(k)),
    }
}

/// A row per the column shape, with its multiplicity.
fn row(shape: &[bool], (kinds, n, m): &(Vec<u8>, i64, u8)) -> (Value, Natural) {
    let fields = shape.iter().zip(kinds.iter().cycle()).map(|(&num, &k)| {
        if num {
            numeric(k % 4, n.wrapping_add(i64::from(k)))
        } else {
            plain(k, n.wrapping_sub(i64::from(k)))
        }
    });
    (Value::tuple(fields), multiplicity(*m, *n))
}

/// Well-formed bags: one to four mixed columns, up to 80 rows, so most
/// replies span several of the writer's buffers.
/// Rows that collide add their multiplicities, which can pass `u64`.
fn well_formed() -> impl Strategy<Value = (Vec<bool>, Bag)> {
    (
        vec(any::<bool>(), 1..5),
        vec((vec(0u8..12, 1..5), any::<i64>(), 0u8..6), 0..81),
    )
        .prop_map(|(shape, rows)| {
            let bag = Bag::from_counted(rows.iter().map(|r| row(&shape, r)));
            (shape, bag)
        })
}

/// The malformed shapes, each injected into an otherwise well-formed bag.
fn malformed(shape: &[bool], kind: u8) -> (Value, Natural) {
    let one = Natural::one();
    let good = |ix: usize| {
        if shape[ix] {
            int_value(2u64)
        } else {
            Value::sym("ok")
        }
    };
    let with = |at: usize, cell: Value| {
        let fields = (0..shape.len()).map(|ix| if ix == at { cell.clone() } else { good(ix) });
        Value::tuple(fields)
    };
    let plain_at = shape.iter().position(|&n| !n);
    let numeric_at = shape.iter().position(|&n| n);
    match (kind, plain_at, numeric_at) {
        // A row that is not a tuple.
        (0, _, _) => (Value::sym("stray"), one),
        (1, _, _) => (int_value(3u64), one),
        // The wrong arity, one short and one long.
        (2, _, _) => (Value::tuple((0..shape.len() - 1).map(good)), one),
        (3, _, _) => {
            let mut fields: Vec<Value> = (0..shape.len()).map(good).collect();
            fields.push(Value::sym("extra"));
            (Value::tuple(fields), one)
        }
        // A bag or a tuple in a plain cell.
        (4, Some(at), _) => (with(at, Value::bag([Value::sym("z")])), one),
        (5, Some(at), _) => (with(at, Value::tuple([Value::int(1)])), one),
        // A numeric cell that is not `⟦[a]ⁿ⟧`.
        (4, None, Some(at)) | (6, _, Some(at)) => (
            with(at, Value::bag([Value::tuple([Value::sym(UNIT_ATOM_B)])])),
            one,
        ),
        (5, None, Some(at)) | (7, _, Some(at)) => (with(at, Value::int(4)), one),
        (8, _, Some(at)) => (
            with(
                at,
                Value::bag([Value::tuple([Value::sym(UNIT_ATOM), Value::sym(UNIT_ATOM)])]),
            ),
            one,
        ),
        // A numeric value above `i64::MAX`.
        (9, _, Some(at)) => (with(at, int_value(i64::MAX as u64 + 1)), one),
        // A multiplicity above `u64::MAX`, on a well-formed row.
        _ => (
            with(usize::MAX, Value::int(0)),
            Natural::from(u128::from(u64::MAX) + 1),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn well_formed_bags_render_like_the_model(input in well_formed()) {
        let (shape, bag) = input;
        let cols = columns(&shape);
        let reply = check(&bag, &cols);
        if bag.iter().all(|(_, m)| m.to_u64().is_some()) {
            prop_assert!(reply.is_ok(), "{bag} over {cols:?}: {reply:?}");
        }
    }

    #[test]
    fn malformed_bags_fail_like_the_model(input in well_formed(), kind in 0u8..11) {
        let (shape, bag) = input;
        let cols = columns(&shape);
        let mut pairs: Vec<(Value, Natural)> =
            bag.iter().map(|(v, m)| (v.clone(), m.clone())).collect();
        pairs.push(malformed(&shape, kind));
        let bag = Bag::from_counted(pairs);
        let reply = check(&bag, &cols);
        prop_assert!(reply.is_err(), "{bag} over {cols:?} must fail: {reply:?}");
    }

    #[test]
    fn result_equality_is_decoded_row_equality(
        shape in vec(any::<bool>(), 1..3),
        left in vec((vec(0u8..4, 1..3), 0i64..2, 3u8..5), 0..4),
        right in vec((vec(0u8..4, 1..3), 0i64..2, 3u8..5), 0..4),
    ) {
        // A four-value domain per column and two multiplicities, so equal
        // results are common.
        let cols = columns(&shape);
        let a = Bag::from_counted(left.iter().map(|r| row(&shape, r)));
        let b = Bag::from_counted(right.iter().map(|r| row(&shape, r)));
        let (qa, qb) = (
            decode_result(&a, cols.clone()).unwrap(),
            decode_result(&b, cols.clone()).unwrap(),
        );
        prop_assert_eq!(
            qa == qb,
            model_rows(&a, &cols) == model_rows(&b, &cols),
            "{} vs {} over {:?}", a, b, cols
        );
    }
}

/// Every malformed shape on its own, on every column layout it applies to.
#[test]
fn each_malformed_shape_fails_like_the_model() {
    for shape in [
        vec![false],
        vec![true],
        vec![false, true],
        vec![true, false, true],
    ] {
        let cols = columns(&shape);
        for kind in 0..11 {
            let bag = Bag::from_counted([malformed(&shape, kind)]);
            let reply = check(&bag, &cols);
            assert!(
                reply.is_err(),
                "kind {kind}: {bag} over {cols:?}: {reply:?}"
            );
        }
    }
}

/// A row that fails two ways reports the earlier check: the arity before
/// its cells, a cell before its multiplicity, the first bad cell first.
#[test]
fn the_first_failure_wins() {
    let cols = columns(&[true, false]);
    let big = Natural::from(u128::from(u64::MAX) + 1);
    let short_and_big = Bag::from_counted([(Value::tuple([int_value(1u64)]), big.clone())]);
    assert_eq!(
        check(&short_and_big, &cols),
        Err("decode failure: row arity 1 vs output arity 2".into())
    );
    let bad_cell_and_big =
        Bag::from_counted([(Value::tuple([Value::int(1), Value::sym("x")]), big)]);
    assert_eq!(
        check(&bad_cell_and_big, &cols),
        Err("decode failure: 1".into())
    );
    let two_bad_cells = Bag::from_values([Value::tuple([Value::sym("x"), Value::int(2)])]);
    assert_eq!(
        check(&two_bad_cells, &columns(&[true, true])),
        Err("decode failure: x".into())
    );
}

#[test]
fn extreme_cells_render_exactly() {
    let cols = columns(&[false, true, false]);
    let bag = Bag::from_counted([(
        Value::tuple([
            Value::int(i64::MIN),
            int_value(i64::MAX as u64),
            Value::sym(""),
        ]),
        Natural::from(u64::MAX),
    )]);
    assert_eq!(
        check(&bag, &cols),
        Ok(
            "-9223372036854775808 | 9223372036854775807 |   x18446744073709551615\n\
            (18446744073709551615 rows)"
                .into()
        )
    );
    assert_eq!(check(&Bag::new(), &cols), Ok("(0 rows)".into()));
}

/// Two rows of multiplicity 2⁶³ make 2⁶⁴ rows: the footer is exact, not
/// wrapped to 0 (or an overflow panic in a debug build).
#[test]
fn row_count_past_u64_is_exact() {
    let catalog = Catalog::new().with_table("t", &[("v", false)]);
    let rows: Vec<Vec<SqlValue>> = ["x", "y"]
        .iter()
        .flat_map(|v| std::iter::repeat_with(|| vec![SqlValue::Str((*v).into())]).take(32_768))
        .collect();
    let db = database_from_rows(&catalog, &[("t", rows)]).unwrap();
    let result = run("SELECT a.v FROM t a, t b, t c, t d", &catalog, &db).unwrap();
    assert_eq!(result.total_rows(), 1u128 << 64);
    assert_eq!(
        Response::Rows(result).to_string(),
        "x  x9223372036854775808\ny  x9223372036854775808\n(18446744073709551616 rows)"
    );
}
