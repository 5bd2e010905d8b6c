//! Golden bytes of WAL commit records: an append over every column type
//! with a NULL, a delete and a replace, each committed through a
//! `VersionedTable` and captured by its commit hook. A moved byte is a
//! log that no longer recovers after an upgrade.

use std::sync::{Arc, Mutex};

use rdb_storage::{Change, Commit, CommitHook, StorageError, Table, TableBuilder, VersionedTable};
use rdb_vector::{DataType, Schema, Value};
use rdb_wal::codec::{decode_record, encode_record};

/// Kind 1, table "t", epoch 1, the five-column schema, then two rows:
/// `(false, -2, -1.25, 'héllo', 19000)` and `(true, 7, NULL, '', -1)`.
const APPEND: &str = concat!(
    "01",
    "0100000074",
    "0100000000000000",
    "05000000",
    "010000006200",
    "010000006901",
    "010000006602",
    "010000007303",
    "010000006404",
    "02000000",
    "05000000",
    "0100",
    "02feffffffffffffff",
    "03000000000000f4bf",
    "040600000068c3a96c6c6f",
    "05384a0000",
    "05000000",
    "0101",
    "020700000000000000",
    "00",
    "0400000000",
    "05ffffffff",
);

/// Kind 2, epoch 2: predecessor positions 0 and 2.
const DELETE: &str = concat!(
    "02",
    "0100000074",
    "0200000000000000",
    "05000000",
    "010000006200",
    "010000006901",
    "010000006602",
    "010000007303",
    "010000006404",
    "02000000",
    "0000000000000000",
    "0200000000000000",
);

/// Kind 3, epoch 3: `(true, 3, 2.0, 'x', 0)` and `(false, 4, -0.0, 'yz', 1)`.
const REPLACE: &str = concat!(
    "03",
    "0100000074",
    "0300000000000000",
    "05000000",
    "010000006200",
    "010000006901",
    "010000006602",
    "010000007303",
    "010000006404",
    "02000000",
    "05000000",
    "0101",
    "020300000000000000",
    "030000000000000040",
    "040100000078",
    "0500000000",
    "05000000",
    "0100",
    "020400000000000000",
    "030000000000000080",
    "0402000000797a",
    "0501000000",
);

#[derive(Default)]
struct Capture(Mutex<Vec<Commit>>);

impl CommitHook for Capture {
    fn before_commit(&self, commit: &Commit) -> Result<(), StorageError> {
        self.0.lock().unwrap().push(commit.clone());
        Ok(())
    }
}

fn schema() -> Schema {
    Schema::from_pairs([
        ("b", DataType::Bool),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
        ("d", DataType::Date),
    ])
}

fn row(b: bool, i: i64, f: f64, s: &str, d: i32) -> Vec<Value> {
    vec![
        Value::Bool(b),
        Value::Int(i),
        Value::Float(f),
        Value::str(s),
        Value::Date(d),
    ]
}

fn table(rows: &[Vec<Value>]) -> Arc<Table> {
    let mut b = TableBuilder::new("t", schema(), rows.len());
    for r in rows {
        b.push_row(r.clone());
    }
    b.finish()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn commit_record_bytes_are_pinned() {
    let vt = VersionedTable::new(table(&[row(true, 1, 0.5, "a", 10)]));
    let capture = Arc::new(Capture::default());
    vt.set_commit_hook(capture.clone());
    let appended = vec![
        row(false, -2, -1.25, "héllo", 19_000),
        vec![
            Value::Bool(true),
            Value::Int(7),
            Value::Null,
            Value::str(""),
            Value::Date(-1),
        ],
    ];
    vt.append(&appended).unwrap();
    vt.delete_where(|t| (0..t.rows()).map(|i| i % 2 == 0).collect())
        .unwrap();
    let fresh = vec![row(true, 3, 2.0, "x", 0), row(false, 4, -0.0, "yz", 1)];
    vt.replace(&table(&fresh)).unwrap();
    let records = capture.0.lock().unwrap().clone();
    assert_eq!(records.len(), 3);
    for (rec, golden) in records.iter().zip([APPEND, DELETE, REPLACE]) {
        let bytes = encode_record(rec);
        assert_eq!(bytes, unhex(golden), "epoch {}", rec.epoch);
        let back = decode_record(&bytes).unwrap();
        assert_eq!(
            (back.table.as_str(), &back.schema, back.epoch),
            ("t", &schema(), rec.epoch)
        );
        assert_eq!(encode_record(&back), bytes);
    }
    let decoded: Vec<Change> = [APPEND, DELETE, REPLACE]
        .iter()
        .map(|g| decode_record(&unhex(g)).unwrap().change)
        .collect();
    assert!(matches!(&decoded[0], Change::Append(rows) if rows.to_rows() == appended));
    assert!(
        matches!(&decoded[1], Change::Delete { positions, before: None } if *positions == [0, 2])
    );
    assert!(matches!(&decoded[2], Change::Replace(data) if table_rows(data) == fresh));
}

fn table_rows(data: &rdb_storage::ChunkList) -> Vec<Vec<Value>> {
    Table::from_chunks("t", schema(), data.chunks().to_vec(), 0).to_rows()
}
