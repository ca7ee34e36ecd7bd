"""The paper's real data set, substituted by a faithful generator.

The original is a sanitized diabetes database that is not publicly
available; this module generates a synthetic stand-in with the *exact*
schema, attribute widths, Hidden/Visible split and cardinality ratios
of section 6.2 (scaled, default 1/10):

* Doctors [4.5 K]  (specialty, description visible; names hidden)
* Patients [14 K]  (quasi-identifiers hidden, incl. bodymassindex)
* Measurements [1.3 M] (root; both foreign keys hidden)
* Drugs [45]

What Figure 16 depends on -- the Measurements/Patients fan-in of ~92
and the small node tables -- is preserved by construction, which is why
the substitution keeps the experiment meaningful.

Selectivity-exact attributes: ``Patients.age`` cycles ``0..99`` (so
``age < k`` has selectivity ``k/100``) and ``Doctors.name`` cycles over
ten surnames (equality = 10%, the paper's sH).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.ghostdb import GhostDB

PAPER_CARDINALITIES = {
    "Measurements": 1_300_000,
    "Patients": 14_000,
    "Doctors": 4_500,
    "Drugs": 45,
}

DDL = [
    """CREATE TABLE Measurements (id int,
        patient_id int HIDDEN REFERENCES Patients,
        drug_id int HIDDEN REFERENCES Drugs,
        time char(10), measurement char(10), comment char(100))""",
    """CREATE TABLE Patients (id int,
        doctor_id int HIDDEN REFERENCES Doctors,
        first_name char(20), name char(20) HIDDEN, ssn char(10) HIDDEN,
        address char(50) HIDDEN, birthdate char(10) HIDDEN,
        bodymassindex float HIDDEN, age smallint, sexe char(2),
        city char(20), zipcode char(6))""",
    """CREATE TABLE Doctors (id int, specialty char(20),
        description char(60), first_name char(20) HIDDEN,
        name char(20) HIDDEN)""",
    "CREATE TABLE Drugs (id int, property char(60), comment char(100) HIDDEN)",
]

INDEXES = {
    "Doctors": ("name",),
    "Patients": ("bodymassindex", "name"),
}

SPECIALTIES = ["Psychiatrist", "Cardiologist", "Endocrinologist",
               "Generalist", "Nephrologist"]
SURNAMES = [f"surname{i}" for i in range(10)]
CITIES = ["Paris", "Versailles", "Lyon", "Lille", "Nantes"]


@dataclass(frozen=True)
class MedicalConfig:
    """Scale factor and RNG seed of the generated medical data set."""

    scale: float = 0.1
    seed: int = 7

    def cardinality(self, table: str) -> int:
        return max(5, int(PAPER_CARDINALITIES[table] * self.scale))


def build_medical(config: Optional[MedicalConfig] = None) -> GhostDB:
    """Create, load and build the medical GhostDB."""
    cfg = config or MedicalConfig()
    rng = random.Random(cfg.seed)
    db = GhostDB(indexed_columns=dict(INDEXES))
    for ddl in DDL:
        db.execute(ddl)
    n = {t: cfg.cardinality(t) for t in PAPER_CARDINALITIES}

    db.load("Doctors", [
        (SPECIALTIES[i % len(SPECIALTIES)], f"practice {i}",
         f"first{i % 50}", SURNAMES[i % len(SURNAMES)])
        for i in range(n["Doctors"])
    ])
    db.load("Drugs", [
        (f"property {i}", f"hidden note {i}") for i in range(n["Drugs"])
    ])
    db.load("Patients", [
        (rng.randrange(n["Doctors"]),            # doctor_id
         f"first{i % 40}",                       # first_name (visible)
         SURNAMES[i % len(SURNAMES)],            # name (hidden)
         f"{i:09d}"[:10],                        # ssn
         f"{i} Health Street",                   # address
         f"19{i % 80 + 10}-01-01",               # birthdate
         15.0 + (i % 300) / 10.0,                # bodymassindex 15.0-44.9
         i % 100,                                # age: age < k -> k/100
         "MF"[i % 2],                            # sexe
         CITIES[i % len(CITIES)],                # city
         f"{75000 + i % 999}")                   # zipcode
        for i in range(n["Patients"])
    ])
    db.load("Measurements", [
        (rng.randrange(n["Patients"]), rng.randrange(n["Drugs"]),
         f"t{i % 24}h", f"g{i % 300}", f"measurement comment {i % 17}")
        for i in range(n["Measurements"])
    ])
    db.build()
    return db


def sv_to_age_bound(selectivity: float) -> int:
    """``age < k`` bound realizing a wanted Visible selectivity."""
    return max(1, round(selectivity * 100))


def top_k_bmi_query(k: Optional[int],
                    specialty: str = "Psychiatrist") -> str:
    """Ranked retrieval: one specialty's patients by descending BMI.

    The paper's motivating scenario -- a doctor reviewing the most
    at-risk patients first -- needs exactly this shape: a visible
    selection (specialty), a hidden join, and an ``ORDER BY`` on a
    hidden attribute with a small ``LIMIT``.  ``bodymassindex`` is
    climbing-indexed, so the planner can serve it by index order and
    stop after ``k`` rows.  ``k=None`` asks for the full ranking.
    """
    sql = (
        "SELECT Patients.id, Patients.bodymassindex "
        "FROM Patients, Doctors "
        "WHERE Patients.doctor_id = Doctors.id "
        f"AND Doctors.specialty = '{specialty}' "
        "ORDER BY Patients.bodymassindex DESC"
    )
    if k is not None:
        sql += f" LIMIT {k}"
    return sql
