"""Hidden-part advisor (paper future work, implemented).

Section 2.1 gives the design guideline this tool automates: "declare as
Hidden the foreign key attributes of all tables as well as attributes
whose combination could be used to identify individuals (i.e.,
quasi-identifiers) and let the rest of the tables and attributes remain
Visible".

The advisor inspects a set of ``CREATE TABLE`` statements (without
``HIDDEN`` annotations) plus optional sample rows and proposes a hidden
set:

* every foreign key (mandatory -- GhostDB links tables on Secure);
* columns whose names match well-known identifying patterns (name, ssn,
  address, birth date, phone, email, ...);
* columns whose sampled values are near-unique (direct identifiers) or
  which, combined, form a small-multiplicity quasi-identifier group.

The output is a report plus rewritten DDL ready for :class:`GhostDB`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.schema.model import Schema, Table

#: column-name patterns that signal identifying data
IDENTIFIER_PATTERNS = (
    r"name", r"ssn", r"social", r"address", r"birth", r"phone",
    r"email", r"passport", r"licen[cs]e", r"iban", r"account",
)

#: sampled-value uniqueness above which a column is a direct identifier
UNIQUENESS_THRESHOLD = 0.9

#: a quasi-identifier combination is flagged when the average group it
#: induces is smaller than this many rows (k-anonymity style)
QUASI_GROUP_LIMIT = 2.0


@dataclass
class Recommendation:
    """One column's advised placement."""

    table: str
    column: str
    hide: bool
    reason: str


@dataclass
class AdvisorReport:
    """The advisor's verdict for one schema."""

    recommendations: List[Recommendation] = field(default_factory=list)

    def hidden_columns(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for rec in self.recommendations:
            if rec.hide:
                out.setdefault(rec.table, []).append(rec.column)
        return out

    def describe(self) -> str:
        lines = []
        for rec in self.recommendations:
            verdict = "HIDDEN " if rec.hide else "visible"
            lines.append(
                f"{rec.table}.{rec.column:<20s} {verdict}  {rec.reason}"
            )
        return "\n".join(lines)


class HiddenPartAdvisor:
    """Proposes the Visible/Hidden split for a schema."""

    def __init__(self, schema: Schema,
                 samples: Optional[Dict[str, Sequence[Tuple]]] = None):
        """``samples`` maps table name to rows in data-column order."""
        self.schema = schema
        self.samples = samples or {}

    # ------------------------------------------------------------------
    def advise(self) -> AdvisorReport:
        report = AdvisorReport()
        for name in self.schema.tables:
            table = self.schema.table(name)
            flagged = self._flag_columns(table)
            for col in table.data_columns:
                if col.is_foreign_key:
                    report.recommendations.append(Recommendation(
                        name, col.name, True,
                        "foreign key: joins must happen on Secure",
                    ))
                elif col.name in flagged:
                    report.recommendations.append(Recommendation(
                        name, col.name, True, flagged[col.name],
                    ))
                else:
                    report.recommendations.append(Recommendation(
                        name, col.name, False, "no identifying signal",
                    ))
        return report

    # ------------------------------------------------------------------
    def _flag_columns(self, table: Table) -> Dict[str, str]:
        flagged: Dict[str, str] = {}
        for col in table.data_columns:
            if col.is_foreign_key:
                continue
            for pattern in IDENTIFIER_PATTERNS:
                if re.search(pattern, col.name, re.IGNORECASE):
                    flagged[col.name] = (
                        f"name matches identifying pattern /{pattern}/"
                    )
                    break
        rows = self.samples.get(table.name)
        if rows:
            flagged.update(self._flag_from_samples(table, rows, flagged))
        return flagged

    def _flag_from_samples(self, table: Table, rows: Sequence[Tuple],
                           already: Dict[str, str]) -> Dict[str, str]:
        flagged: Dict[str, str] = {}
        columns = table.data_columns
        if any(len(r) != len(columns) for r in rows):
            raise SchemaError(
                f"sample rows for {table.name!r} have the wrong width"
            )
        n = len(rows)
        candidate_positions = []
        for pos, col in enumerate(columns):
            if col.is_foreign_key or col.name in already:
                continue
            distinct = len({r[pos] for r in rows})
            if distinct / n >= UNIQUENESS_THRESHOLD and n >= 10:
                flagged[col.name] = (
                    f"direct identifier: {distinct}/{n} sampled values "
                    f"are distinct"
                )
            else:
                candidate_positions.append(pos)
        # quasi-identifier detection over pairs and triples
        for size in (2, 3):
            for combo in itertools.combinations(candidate_positions, size):
                names = [columns[p].name for p in combo]
                if any(nm in flagged for nm in names):
                    continue
                groups = len({tuple(r[p] for p in combo) for r in rows})
                avg_group = n / groups
                if avg_group < QUASI_GROUP_LIMIT and n >= 10:
                    for nm in names[:-1]:
                        # hiding all but one column of the combination
                        # breaks the quasi-identifier
                        flagged[nm] = (
                            "quasi-identifier: combination "
                            f"({', '.join(names)}) averages "
                            f"{avg_group:.1f} rows per group"
                        )
        return flagged


def rewrite_ddl(ddl_statements: Sequence[str]
                ) -> Tuple[List[str], AdvisorReport]:
    """Annotate plain CREATE TABLE statements with advised HIDDEN flags.

    Foreign keys must carry ``REFERENCES`` clauses; they may be declared
    without ``HIDDEN`` here (the advisor adds it, since GhostDB requires
    hidden fks).
    """
    from repro.sql import ast
    from repro.sql.parser import parse

    parsed: List[ast.CreateTable] = []
    tables: List[Table] = []
    for sql in ddl_statements:
        stmt = parse(sql)
        if not isinstance(stmt, ast.CreateTable):
            raise SchemaError("expected CREATE TABLE statements")
        parsed.append(stmt)
        # force fks hidden so the draft schema validates
        from repro.schema.ddl import column_from_def
        from repro.schema.model import Column
        cols = []
        for cdef in stmt.columns:
            col = column_from_def(cdef)
            if col.is_foreign_key and not col.hidden:
                col = Column(col.name, col.type, hidden=True,
                             references=col.references)
            cols.append(col)
        tables.append(Table(stmt.name, cols))

    schema = Schema(tables)
    report = HiddenPartAdvisor(schema).advise()
    hidden = report.hidden_columns()

    rewritten: List[str] = []
    for stmt in parsed:
        parts = []
        for cdef in stmt.columns:
            text = f"{cdef.name} {cdef.type_name}"
            if cdef.char_size:
                text += f"({cdef.char_size})"
            if cdef.name in hidden.get(stmt.name, ()):
                text += " HIDDEN"
            if cdef.references:
                text += f" REFERENCES {cdef.references}"
            parts.append(text)
        if not any(c.name == "id" for c in stmt.columns):
            parts.insert(0, "id int")
        rewritten.append(
            f"CREATE TABLE {stmt.name} ({', '.join(parts)})"
        )
    return rewritten, report
