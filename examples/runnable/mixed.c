double f(double x) {
    return x * x + 1.0;
}

int main() {
    double x[256], y[256];
    double sum = 0.0, m = 0.0;
    int i, found = -1;
    for (i = 0; i < 256; i++) {
        x[i] = f(i * 0.01);
    }
    for (i = 0; i < 256; i++) {
        y[i] = sqrt(x[i]);
    }
    for (i = 0; i < 256; i++) {
        if (y[i] > 2.0) {
            found = i;
            break;
        }
    }
    for (i = 0; i < 256; i++) {
        sum += x[i];
        m = m + y[i];
    }
    for (i = 0; i < 256; i++) {
        sum += x[i];
        y[i] = sum;
    }
    return found;
}
