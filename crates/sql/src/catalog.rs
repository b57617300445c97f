//! Table catalog and data loading for the SQL-bag frontend.
//!
//! Tables are flat bag relations. A column may be declared **numeric**,
//! in which case its values are stored in the paper's integer encoding —
//! a bag of `v` unit tuples — so that `SUM` and `COUNT` compile to the
//! Section 3 aggregate constructions (`δ`, a MAP onto one unit tuple)
//! instead of needing native arithmetic. `AVG` compiles to the pair of
//! the two, which `compile::decode_result` divides. Non-numeric columns
//! hold atoms.

use std::collections::BTreeMap;
use std::fmt;

use balg_core::bag::{Bag, BagBuilder};
use balg_core::derived::{decode_int, int_value};
use balg_core::value::{Atom, Value};

/// A column declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// `true` if stored in the bag-of-units integer encoding.
    pub numeric: bool,
}

/// A table declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Table {
    /// Table name (also the database bag name).
    pub name: String,
    /// Columns, in tuple order.
    pub columns: Vec<Column>,
}

/// The schema catalog.
#[derive(Clone, Default, Debug)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Declare a table; `columns` pairs names with the numeric flag.
    pub fn with_table(mut self, name: &str, columns: &[(&str, bool)]) -> Catalog {
        self.declare(name, columns);
        self
    }

    /// Declare a table in place (the `&mut` twin of
    /// [`Catalog::with_table`], for catalogs that grow after
    /// construction — e.g. a served session declaring tables at runtime).
    pub fn declare(&mut self, name: &str, columns: &[(&str, bool)]) {
        self.tables.insert(
            name.to_owned(),
            Table {
                name: name.to_owned(),
                columns: columns
                    .iter()
                    .map(|(column, numeric)| Column {
                        name: (*column).to_owned(),
                        numeric: *numeric,
                    })
                    .collect(),
            },
        );
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Iterate over the declared tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// The BALG schema of the catalog: numeric columns are integer bags
    /// `⟦[U]⟧`, others are atoms.
    pub fn to_schema(&self) -> balg_core::schema::Schema {
        use balg_core::types::Type;
        let mut schema = balg_core::schema::Schema::new();
        for (name, table) in &self.tables {
            let fields: Vec<Type> = table
                .columns
                .iter()
                .map(|column| {
                    if column.numeric {
                        Type::bag(Type::atom_tuple(1))
                    } else {
                        Type::Atom
                    }
                })
                .collect();
            schema = schema.with(name, Type::bag(Type::Tuple(fields)));
        }
        schema
    }
}

/// A SQL-level value.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SqlValue {
    /// An integer.
    Int(i64),
    /// A string.
    Str(String),
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Int(v) => write!(f, "{v}"),
            SqlValue::Str(s) => f.write_str(s),
        }
    }
}

/// Errors loading rows into a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Row arity does not match the table.
    ArityMismatch {
        /// Expected column count.
        expected: usize,
        /// Row length found.
        found: usize,
    },
    /// A numeric column received a negative or non-integer value.
    BadNumeric(String),
    /// A string column received an integer (or vice versa is allowed —
    /// ints become integer atoms).
    TypeMismatch(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::ArityMismatch { expected, found } => {
                write!(f, "row of arity {found}, table needs {expected}")
            }
            LoadError::BadNumeric(what) => write!(f, "bad numeric value {what}"),
            LoadError::TypeMismatch(what) => write!(f, "type mismatch: {what}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Encode one SQL value for a column.
pub fn encode_value(value: &SqlValue, numeric: bool) -> Result<Value, LoadError> {
    match (value, numeric) {
        (SqlValue::Int(v), true) => {
            let v = u64::try_from(*v).map_err(|_| LoadError::BadNumeric(v.to_string()))?;
            Ok(int_value(v))
        }
        (SqlValue::Int(v), false) => Ok(Value::int(*v)),
        (SqlValue::Str(s), false) => Ok(Value::sym(s)),
        (SqlValue::Str(s), true) => Err(LoadError::TypeMismatch(format!(
            "string {s:?} in a numeric column"
        ))),
    }
}

/// Decode a stored value back to SQL level.
pub fn decode_value(value: &Value, numeric: bool) -> Option<SqlValue> {
    decode_cell(value, numeric).map(Cell::to_sql)
}

/// A decoded value borrowed from the bag that holds it: what
/// [`decode_value`] returns, without copying a text cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Cell<'a> {
    Int(i64),
    Str(&'a str),
}

impl Cell<'_> {
    pub(crate) fn to_sql(self) -> SqlValue {
        match self {
            Cell::Int(v) => SqlValue::Int(v),
            Cell::Str(s) => SqlValue::Str(s.to_owned()),
        }
    }
}

/// Decode a stored value in place: a numeric column holds `⟦[a]ⁿ⟧` with
/// `n ≤ i64::MAX`, a plain one an atom.
pub(crate) fn decode_cell(value: &Value, numeric: bool) -> Option<Cell<'_>> {
    if numeric {
        let n = decode_int(value)?;
        Some(Cell::Int(i64::try_from(n.to_u64()?).ok()?))
    } else {
        match value.as_atom()? {
            Atom::Int(v) => Some(Cell::Int(*v)),
            Atom::Str(s) => Some(Cell::Str(s)),
        }
    }
}

/// The `[SUM, COUNT]` an `AVG` cell holds, when both fit a `u64`.
pub(crate) fn average_parts(value: &Value) -> Option<(u64, u64)> {
    match value.as_tuple()? {
        [sum, count] => Some((decode_int(sum)?.to_u64()?, decode_int(count)?.to_u64()?)),
        _ => None,
    }
}

/// Load rows into a table's bag (duplicate rows accumulate multiplicity —
/// bag semantics).
pub fn load_table(table: &Table, rows: &[Vec<SqlValue>]) -> Result<Bag, LoadError> {
    let mut bag = BagBuilder::with_capacity(rows.len());
    for row in rows {
        if row.len() != table.columns.len() {
            return Err(LoadError::ArityMismatch {
                expected: table.columns.len(),
                found: row.len(),
            });
        }
        let fields = row
            .iter()
            .zip(&table.columns)
            .map(|(value, column)| encode_value(value, column.numeric))
            .collect::<Result<Vec<_>, _>>()?;
        bag.push_one(Value::Tuple(fields.into()));
    }
    Ok(bag.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use balg_core::natural::Natural;

    fn orders() -> Table {
        Catalog::new()
            .with_table("orders", &[("customer", false), ("qty", true)])
            .get("orders")
            .unwrap()
            .clone()
    }

    #[test]
    fn load_encodes_numeric_columns() {
        let table = orders();
        let rows = vec![
            vec![SqlValue::Str("ann".into()), SqlValue::Int(3)],
            vec![SqlValue::Str("ann".into()), SqlValue::Int(3)],
        ];
        let bag = load_table(&table, &rows).unwrap();
        // duplicate rows accumulate multiplicity 2
        assert_eq!(bag.cardinality(), Natural::from(2u64));
        assert_eq!(bag.distinct_count(), 1);
        let (row, _) = bag.iter().next().unwrap();
        let fields = row.as_tuple().unwrap();
        assert_eq!(
            decode_value(&fields[0], false),
            Some(SqlValue::Str("ann".into()))
        );
        assert_eq!(decode_value(&fields[1], true), Some(SqlValue::Int(3)));
    }

    #[test]
    fn load_rejects_bad_rows() {
        let table = orders();
        assert!(matches!(
            load_table(&table, &[vec![SqlValue::Int(1)]]),
            Err(LoadError::ArityMismatch { .. })
        ));
        assert!(matches!(
            load_table(
                &table,
                &[vec![SqlValue::Str("x".into()), SqlValue::Str("y".into())]]
            ),
            Err(LoadError::TypeMismatch(_))
        ));
        assert!(matches!(
            load_table(
                &table,
                &[vec![SqlValue::Str("x".into()), SqlValue::Int(-1)]]
            ),
            Err(LoadError::BadNumeric(_))
        ));
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (value, numeric) in [
            (SqlValue::Int(7), true),
            (SqlValue::Int(-7), false),
            (SqlValue::Str("hello".into()), false),
        ] {
            let encoded = encode_value(&value, numeric).unwrap();
            assert_eq!(decode_value(&encoded, numeric), Some(value));
        }
    }
}
