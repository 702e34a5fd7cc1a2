import pytest

from smoothint import Canonical, EncoderConfig, Mode, build_table


@pytest.fixture(scope="session")
def canonical_config():
    return EncoderConfig(family=Canonical(), delta=0.2)


@pytest.fixture(scope="session")
def fractional_config():
    return EncoderConfig(family=Canonical(), delta=0.2, mode=Mode.FRACTIONAL)


@pytest.fixture(scope="session")
def table30(canonical_config):
    return build_table(canonical_config, 30)
