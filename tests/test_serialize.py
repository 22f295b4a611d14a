"""The gfb-v1, df-v1 and cd-v1 schemas: a round trip returns an equal object,
and a malformed or tampered document raises SchemaError."""

import json

import pytest

from diraclab.groupoid import point_bundle
from diraclab.schema import (
    SchemaError,
    bundle_from_json,
    bundle_to_json,
    datum_from_json,
    datum_to_json,
    dirac_family_from_json,
    dirac_family_to_json,
)


def through_text(doc):
    """The document as a file holds it."""
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def bundles(pair_bundle, circle1, torus1):
    return {"pair": pair_bundle,
            "circle": circle1.datum.c_bundle,
            "circle.base": circle1.datum.g_bundle,
            "torus.base": torus1.datum.g_bundle,
            "point": point_bundle()}


@pytest.mark.parametrize("which", ["pair", "circle", "circle.base", "torus.base", "point"])
def test_bundle_round_trip(bundles, which):
    bundle = bundles[which]
    assert bundle_from_json(through_text(bundle_to_json(bundle))) == bundle


def test_dirac_family_round_trip(circle1, reduction2):
    for family in (list(circle1.datum.dirac), list(reduction2.orbit.dirac)):
        doc = through_text(dirac_family_to_json(family))
        assert dirac_family_from_json(doc) == family


def test_datum_round_trip(circle1, reduction1):
    for datum in (circle1.datum, reduction1.orbit):
        assert datum_from_json(through_text(datum_to_json(datum))) == datum


@pytest.mark.parametrize("key", ["c_bundle_hash", "g_bundle_hash"])
def test_edited_bundle_hash_is_rejected(circle1, key):
    doc = through_text(datum_to_json(circle1.datum))
    doc[key] = "0" * 64
    with pytest.raises(SchemaError, match="content hash mismatch"):
        datum_from_json(doc)


LOADERS = [(bundle_from_json, "gfb-v1"), (dirac_family_from_json, "df-v1"),
           (datum_from_json, "cd-v1")]


@pytest.mark.parametrize("load, schema", LOADERS)
@pytest.mark.parametrize("doc", [[1, 2], "cd-v1", None, {"schema": "other"}])
def test_a_document_not_of_the_schema_is_rejected(load, schema, doc):
    with pytest.raises(SchemaError):
        load(doc)


@pytest.mark.parametrize("load, schema", LOADERS)
def test_a_document_without_its_fields_is_rejected(load, schema):
    with pytest.raises(SchemaError, match="lacks the key"):
        load({"schema": schema})


def test_a_missing_nested_key_is_rejected(pair_bundle):
    doc = through_text(bundle_to_json(pair_bundle))
    del doc["arrows"][0]["s_star"]
    with pytest.raises(SchemaError, match="s_star"):
        bundle_from_json(doc)
    doc = through_text(bundle_to_json(pair_bundle))
    doc["pairs"][0]["g"] = len(doc["arrows"])
    with pytest.raises(SchemaError):
        bundle_from_json(doc)
