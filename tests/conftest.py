"""The --checking option: every test in checking mode.

With ``--checking`` every trusted construction of the package goes
through its checked constructor for the whole of each test
(test_trusted.enter_checking_mode), so that a held path and its checked
twin are seen to agree on every verdict, witness and error.  Tests that
hold only on the trusted path are listed in TRUSTED_ONLY with the
reason; they run there unchanged, as they do without the option.
"""

import pytest

TRUSTED_ONLY = {
    "test_a_product_lists_its_morphisms_only_when_read":
        "it asserts that a product's morphisms are never listed, and the "
        "checked FinFn constructors list every domain they check",
}


def pytest_addoption(parser):
    parser.addoption(
        "--checking", action="store_true",
        help="route every trusted build through its checked constructor "
             "for each test, except those in conftest.TRUSTED_ONLY")


@pytest.fixture
def in_checking_mode(request):
    """Whether this test runs in checking mode, for a count that only
    the trusted path keeps."""
    return request.config.getoption("--checking") and \
        request.node.originalname not in TRUSTED_ONLY


@pytest.fixture(autouse=True)
def _checking_option(in_checking_mode, monkeypatch):
    if in_checking_mode:
        from test_trusted import enter_checking_mode
        enter_checking_mode(monkeypatch)
