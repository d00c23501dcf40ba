"""The bundled index spec: the document PyYAML reads from ``igei_tree.yaml``.

``igei_tree.yaml`` stays the edited source, and a test pins this snapshot
to it. Written by :mod:`igei._spec_yaml`; regenerate it with

    PYTHONPATH=src python -m igei._spec_yaml > src/igei/_bundled_spec.py
"""


def document() -> dict:
    """A new copy of the document on each call: no caller shares one."""
    return {
        'name': 'igei-2023',
        'domain_count': 6,
        'tree': [
            {'domain': 'work', 'subdomains': [{'id': 'participation', 'indicators': ['G1']}, {'id': 'quality_and_entrepreneurship', 'indicators': ['G2', 'G3']}]},
            {'domain': 'economy', 'indicators': ['G4', 'G5']},
            {'domain': 'knowledge', 'subdomains': [{'id': 'attainment_and_participation', 'indicators': ['G6', 'G7']}, {'id': 'segregation', 'indicators': ['G8']}]},
            {'domain': 'time', 'subdomains': [{'id': 'care_activities', 'indicators': ['G9', 'G10']}, {'id': 'social_activities', 'indicators': ['G11', 'G12']}]},
            {'domain': 'politics', 'indicators': ['G13', 'G14']},
            {'domain': 'health', 'subdomains': [{'id': 'health_status', 'indicators': ['G15', 'G16', 'G17']}, {'id': 'health_behaviours', 'indicators': ['G18', 'G19', 'G20']}]},
        ],
        'indicators': {
            'G1': {'label': 'Employment rate (ages 20-64)', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2023},
            'G2': {'label': 'Involuntary part-time employment', 'metric': 'standard', 'polarity': 'negative', 'correction': 'own_average', 'period': 2023},
            'G3': {'label': 'Female-owned businesses', 'metric': 'share', 'correction': {'indicator': 'G1', 'field': 'total'}, 'period': 2022},
            'G4': {'label': 'Average annual employee earnings', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2022},
            'G5': {'label': 'Average annual per-capita pension income', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2022},
            'G6': {'label': 'Tertiary education graduates (ages 25-34)', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2023},
            'G7': {'label': 'Participation in continuous education (ages 25-64)', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2023},
            'G8': {'label': 'Graduates in female-dominated fields', 'metric': 'standard', 'polarity': 'positive', 'correction': {'indicator': 'G6', 'field': 'total'}, 'period': 2023},
            'G9': {'label': 'Employment ratio of mothers of preschoolers to women without children', 'metric': 'ratio', 'correction': {'indicator': 'G1', 'field': 'women'}, 'period': 2023},
            'G10': {'label': 'Authorized early-childcare places (ages 0-2)', 'metric': 'capped', 'correction': 'none', 'period': 2023},
            'G11': {'label': 'Social participation (ages 14+)', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2023},
            'G12': {'label': 'Volunteering activity (ages 14+)', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2023},
            'G13': {'label': 'Women elected to the national parliament', 'metric': 'share', 'correction': 'none', 'period': 2023},
            'G14': {'label': 'Women elected to regional councils', 'metric': 'share', 'correction': 'none', 'period': 2023},
            'G15': {'label': 'Life expectancy at birth', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2023},
            'G16': {'label': 'Healthy life expectancy at birth', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2023},
            'G17': {'label': 'Mental health index', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2023},
            'G18': {'label': 'Smoking (standardized rate)', 'metric': 'standard', 'polarity': 'negative', 'correction': 'own_average', 'period': 2023},
            'G19': {'label': 'At-risk alcohol consumption (standardized rate)', 'metric': 'standard', 'polarity': 'negative', 'correction': 'own_average', 'period': 2023},
            'G20': {'label': 'Adequate nutrition (standardized rate)', 'metric': 'standard', 'polarity': 'positive', 'correction': 'own_average', 'period': 2023},
        },
    }
